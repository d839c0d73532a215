package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare reads two -record files, A (the reference) and B, and prints
// for every workload and end-to-end metric each set's quartiles and a
// verdict against the metric's bound in BENCHMARK.json. It exits 1 when any
// verdict is worse or unresolved.
func runCompare(root string, paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two record files: A (reference) and B")
		return 2
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	a, err := readRecords(paths[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readRecords(paths[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var names []string
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	bad := false
	for _, w := range names {
		fmt.Fprintf(stdout, "%s: A %d runs, B %d runs\n", w, len(a[w]), len(b[w]))
		fmt.Fprintf(stdout, "  %-20s %-5s %36s %36s %8s  %s\n", "metric", "unit", "A q1 / median / q3", "B q1 / median / q3", "change", "verdict")
		for _, m := range spec.EndToEnd {
			av, bv := values(a[w], m.Name), values(b[w], m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v, change := verdict(av, bv, m.Bound, m.Better == "higher")
			bad = bad || v == "worse" || v == "unresolved"
			a1, a2, a3 := quartiles(av)
			b1, b2, b3 := quartiles(bv)
			fmt.Fprintf(stdout, "  %-20s %-5s %11.5g / %10.5g / %11.5g %11.5g / %10.5g / %11.5g %+7.1f%%  %s (bound %g)\n",
				m.Name, m.Unit, a1, a2, a3, b1, b2, b3, 100*change, v, m.Bound)
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(stderr, "bench: the two record files share no workload")
		return 2
	}
	if bad {
		return 1
	}
	return 0
}

// readRecords reads the untraced, correct results of a -record file,
// grouped by workload.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		if rec.Trace == 0 && rec.Result.Correct {
			out[rec.Workload] = append(out[rec.Workload], rec.Result)
		}
	}
	return out, sc.Err()
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict judges B against A for one metric. change is B's median relative
// to A's, signed so that positive is an improvement. The verdict is
// unresolved when either set's interquartile range is wider than the bound
// (relative to its median) — unless every B run beats every A run — and
// otherwise better or worse when the medians differ by more than the bound,
// same when not.
func verdict(a, b []float64, bound float64, higherBetter bool) (string, float64) {
	a1, ma, a3 := quartiles(a)
	b1, mb, b3 := quartiles(b)
	if ma == 0 || mb == 0 {
		if ma == mb {
			return "same", 0
		}
		return "unresolved", 0
	}
	change := (mb - ma) / ma
	if !higherBetter {
		change = -change
	}
	if (a3-a1)/ma > bound || (b3-b1)/mb > bound {
		if allBetter(a, b, higherBetter) {
			return "better", change
		}
		return "unresolved", change
	}
	switch {
	case change < -bound:
		return "worse", change
	case change > bound:
		return "better", change
	}
	return "same", change
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, higherBetter bool) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if higherBetter {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
