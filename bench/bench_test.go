package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestPercentiles(t *testing.T) {
	xs := []float64{7, 1, 10, 4, 2, 9, 3, 8, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	// The tail is the highest candidate leaving at least ten samples beyond
	// its nearest rank, else the median.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {1188, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{4, 1.5, 9.25, 2, 7.5}, [3]float64{1.75, 4, 8.375}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(1..4) = %g, want 2.5", got)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		b      []float64
		higher bool
		want   string
	}{
		{[]float64{100, 102, 99, 101, 100}, false, "same"},
		{[]float64{120, 121, 119, 120, 122}, false, "worse"},
		{[]float64{120, 121, 119, 120, 122}, true, "better"},
		{[]float64{80, 81, 79, 80, 82}, false, "better"},
		{[]float64{60, 140, 100, 70, 130}, false, "unresolved"},
	} {
		if got, _ := verdict(a, c.b, 0.1, c.higher); got != c.want {
			t.Errorf("verdict(%v, higher %v) = %s, want %s", c.b, c.higher, got, c.want)
		}
	}
}

func TestSeededInputs(t *testing.T) {
	for _, quick := range []bool{false, true} {
		if !reflect.DeepEqual(genScenarios(7, quick), genScenarios(7, quick)) ||
			!reflect.DeepEqual(genJobs(7, 3, quick), genJobs(7, 3, quick)) ||
			genTrain(7, quick) != genTrain(7, quick) ||
			!reflect.DeepEqual(genSweep(7, quick), genSweep(7, quick)) {
			t.Fatalf("quick=%v: one seed generated two different inputs", quick)
		}
		if reflect.DeepEqual(genScenarios(7, quick), genScenarios(8, quick)) ||
			reflect.DeepEqual(genJobs(7, 3, quick), genJobs(8, 3, quick)) {
			t.Errorf("quick=%v: seeds 7 and 8 generated the same scenarios or job lists", quick)
		}
	}

	// Every client's list is the same stratified mix each round; resubmits
	// repeat an earlier fresh job of the same client, and no fresh spec
	// appears twice.
	lists := genJobs(3, 4, false)
	seen := map[string]bool{}
	for c, list := range lists {
		kinds := map[string]int{}
		for i, j := range list {
			kinds[j.Kind]++
			if j.Repeat >= 0 {
				if j.Repeat >= i || list[j.Repeat].Repeat >= 0 || !reflect.DeepEqual(list[j.Repeat].Spec, j.Spec) {
					t.Fatalf("client %d job %d repeats job %d, which is not an earlier fresh job of the same spec", c, i, j.Repeat)
				}
				continue
			}
			key, _ := json.Marshal(j.Spec)
			if seen[string(key)] {
				t.Fatalf("client %d job %d: fresh spec seen before", c, i)
			}
			seen[string(key)] = true
		}
		want := map[string]int{kindTrain: 4 * 8, kindServe: 4 * 3, kindRepeat: 4 * 7}
		if !reflect.DeepEqual(kinds, want) {
			t.Errorf("client %d job kinds %v, want %v", c, kinds, want)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps this program's metric and workload
// tables in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := strings.Join(names, " "); got != strings.Join(workloadNames(), " ") {
		t.Errorf("BENCHMARK.json workloads %q, bench %q", got, workloadNames())
	}
	for _, c := range []struct {
		table []metricDef
		json  []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		var got []metricDef
		for _, m := range c.json {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.table) {
			t.Errorf("BENCHMARK.json metrics %v, bench %v", got, c.table)
		}
	}
}

// TestQuickSmoke runs every workload end to end and traced on tiny inputs.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs calculon and calculond")
	}
	out := t.TempDir()
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w, "-seed", "5", "-quick", "-trace", trace, "-out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w, trace, err)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %+v", w, trace, res)
			}
		}
	}
}
