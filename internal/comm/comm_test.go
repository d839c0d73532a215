package comm

import (
	"math"
	"testing"
	"testing/quick"

	"calculon/internal/system"
	"calculon/internal/units"
)

func flatNet(bw units.BytesPerSec, lat units.Seconds) system.Network {
	return system.Network{Name: "flat", Size: 0, Bandwidth: bw, Latency: lat}
}

func TestRingAllReduceCost(t *testing.T) {
	n := flatNet(100, 0)
	// 2·(g−1)/g · bytes / bw
	got := Time(&n, AllReduce, 4, 400)
	want := units.Seconds(2 * (3.0 / 4.0) * 400 / 100)
	if math.Abs(float64(got-want)) > 1e-12 {
		t.Errorf("all-reduce = %v, want %v", got, want)
	}
}

func TestRSPlusAGEqualsAllReduce(t *testing.T) {
	// The RS+AG decomposition must cost the same as a ring all-reduce on a
	// latency-free network — that identity is why the optimization is free
	// on the network and pays off in sharded boundaries.
	n := flatNet(123, 0)
	f := func(rawG, rawB uint16) bool {
		g := int(rawG%31) + 2
		b := units.Bytes(rawB) + 1
		ar := Time(&n, AllReduce, g, b)
		rsag := Time(&n, ReduceScatter, g, b) + Time(&n, AllGather, g, b)
		return math.Abs(float64(ar-rsag)) <= 1e-9*math.Abs(float64(ar))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGroupOfOneIsFree(t *testing.T) {
	n := flatNet(100, 1e-6)
	for _, op := range []Op{AllReduce, ReduceScatter, AllGather, Broadcast} {
		if got := Time(&n, op, 1, 1e9); got != 0 {
			t.Errorf("%v on group of 1 = %v, want 0", op, got)
		}
	}
	// P2P is between two parties; group size is irrelevant.
	if got := Time(&n, P2P, 1, 100); got <= 0 {
		t.Errorf("p2p must cost time, got %v", got)
	}
}

func TestZeroBytesFree(t *testing.T) {
	n := flatNet(100, 1e-6)
	for _, op := range []Op{AllReduce, ReduceScatter, AllGather, Broadcast, P2P} {
		if got := Time(&n, op, 8, 0); got != 0 {
			t.Errorf("%v of 0 bytes = %v, want 0", op, got)
		}
	}
}

func TestInNetworkCollectivesCheaper(t *testing.T) {
	ring := flatNet(100e9, 1e-6)
	sharp := ring
	sharp.InNetworkCollectives = true
	b := units.Bytes(1e9)
	if !(Time(&sharp, AllReduce, 16, b) < Time(&ring, AllReduce, 16, b)) {
		t.Error("in-network all-reduce must beat the ring")
	}
	// Other ops are unaffected.
	if Time(&sharp, AllGather, 16, b) != Time(&ring, AllGather, 16, b) {
		t.Error("all-gather must not change with in-network collectives")
	}
}

func TestLatencyTermGrowsWithGroup(t *testing.T) {
	n := flatNet(1e12, 1e-6)
	small := Time(&n, AllGather, 2, 1e3)
	big := Time(&n, AllGather, 64, 1e3)
	if !(big > small) {
		t.Errorf("latency term must grow with group size: %v vs %v", small, big)
	}
}

func TestP2PCost(t *testing.T) {
	n := flatNet(100, 2e-6)
	got := Time(&n, P2P, 2, 500)
	want := units.Seconds(5) + 2e-6
	if math.Abs(float64(got-want)) > 1e-12 {
		t.Errorf("p2p = %v, want %v", got, want)
	}
}

func TestTimeMonotoneInBytes(t *testing.T) {
	n := system.MustPreset("a100-80g", 64).Networks[0]
	f := func(r1, r2 uint32) bool {
		a := units.Bytes(r1%1e7) + 1
		b := units.Bytes(r2%1e7) + 1
		if a > b {
			a, b = b, a
		}
		for _, op := range []Op{AllReduce, ReduceScatter, AllGather, Broadcast, P2P} {
			if Time(&n, op, 8, a) > Time(&n, op, 8, b)+1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	names := map[Op]string{
		AllReduce: "all-reduce", ReduceScatter: "reduce-scatter",
		AllGather: "all-gather", Broadcast: "broadcast", P2P: "p2p",
	}
	for op, want := range names {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

func TestLatencySteps(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 8: 3, 9: 4, 512: 9}
	for g, want := range cases {
		if got := latencySteps(g); got != want {
			t.Errorf("latencySteps(%d) = %d, want %d", g, got, want)
		}
	}
}

// TestLogLatencyBeatsRingForBigGroups: the latency term of a large-group
// all-gather uses the logarithmic schedule, not (g−1) serialized hops.
func TestLogLatencyBeatsRingForBigGroups(t *testing.T) {
	n := flatNet(1e15, 1e-6) // bandwidth so high only latency matters
	got := Time(&n, AllGather, 512, 1e3)
	ringLat := units.Seconds(511e-6)
	logLat := units.Seconds(9e-6)
	if got > ringLat/10 {
		t.Errorf("all-gather latency %v should be near the log schedule %v, not the ring %v",
			got, logLat, ringLat)
	}
}
