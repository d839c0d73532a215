package main

import (
	"math"
	"sync"
	"time"
)

// Host-speed calibration. On a shared host the wall time of any CPU-bound
// program drifts by tens of percent over minutes as other tenants load the
// machine, and a calibration kernel drifts with it. An untraced run reads
// the host's speed between its measured operations — around every CLI
// invocation, every two daemon job rounds, every batch of set-up launches —
// and reports each host time as it would read on a reference host where the
// kernel takes refCalibration: scaled by refCalibration over the median of
// the run's readings. Over ten seeds this cut the spread of the serving
// sweep's median latency from 17% to 6% of its median. One factor per run,
// rather than one per operation, keeps a reading that happens to land in a
// burst of load from skewing the operation next to it. The raw values go to
// stderr and -record.
//
// The kernel mixes the operations calculon's evaluation loop spends its time
// in — map lookups, log10 and copies of a few hundred bytes — and runs on
// every worker at once, as the searches do.

// refCalibration is one kernel run's time on the reference host, a 2-vCPU
// Xeon KVM guest, when idle.
const refCalibration = 17 * time.Millisecond

// calibIters is the kernel's iteration count per worker.
const calibIters = 350_000

// hostTimeExponent marks the end-to-end metrics that are host times (1) or
// rates per host second (-1), the ones calibration scales.
var hostTimeExponent = map[string]float64{
	"setup_s":          1,
	"latency_p50_ms":   1,
	"latency_tail_ms":  1,
	"strategies_per_s": -1,
	"requests_per_s":   -1,
}

// speed reads the host's speed: the fastest of three kernel runs, the
// fastest because interference only ever slows a run.
func (e *env) speed() {
	best := math.Inf(1)
	for range 3 {
		start := time.Now()
		var wg sync.WaitGroup
		sums := make([]float64, e.workers)
		for w := range e.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sums[w] = kernel(calibIters, w)
			}()
		}
		wg.Wait()
		best = min(best, time.Since(start).Seconds())
		calibSink = sum(sums)
	}
	e.calib = append(e.calib, best)
}

// calibSink keeps the kernel's result live.
var calibSink float64

// normalize scales the host-time metrics to the reference host, keeping
// the measured values in e.raw.
func (e *env) normalize() {
	c := median(e.calib)
	if !e.check(c > 0, "no host speed readings") {
		return
	}
	f := refCalibration.Seconds() / c
	e.logf("host speed factor %.4f: median of %d readings %.2f ms, reference %v", f, len(e.calib), 1e3*c, refCalibration)
	for name, exp := range hostTimeExponent {
		if v, ok := e.metrics[name]; ok {
			e.raw[name] = v
			e.metrics[name] = v * math.Pow(f, exp)
		}
	}
}

type kernelRecord struct{ a [48]float64 }

// kernel is the calibration workload; salt keeps workers' map keys apart.
func kernel(n, salt int) float64 {
	m := make(map[[4]int]float64, 1024)
	var acc float64
	var r, s kernelRecord
	for i := range n {
		k := [4]int{i & 1023, i & 7, (i >> 3) & 3, salt}
		v, ok := m[k]
		if !ok {
			v = math.Log10(float64(i%1000 + 2))
			m[k] = v
		}
		acc += v * 1.0000001 / (1 + float64(i&15))
		r.a[i%48] = acc
		s = r
		acc += s.a[(i+1)%48] * 1e-9
	}
	return acc
}
