package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"calculon/internal/execution"
	"calculon/internal/experiments"
	"calculon/internal/search"
	"calculon/internal/serving"
)

// invocation is one timed run of a built binary.
type invocation struct {
	wall   time.Duration
	rssMiB float64
	code   int
	stdout []byte
}

// invoke runs one of the built binaries to completion, timing it from start
// to exit. A non-zero exit is returned as an error that quotes the tail of
// the program's standard error; the invocation is filled in either way.
func (e *env) invoke(bin string, args ...string) (invocation, error) {
	cmd := exec.Command(filepath.Join(e.bin, bin), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	inv := invocation{wall: time.Since(start), stdout: stdout.Bytes(), code: -1}
	if ps := cmd.ProcessState; ps != nil {
		inv.code = ps.ExitCode()
		inv.rssMiB = maxRSSMiB(ps)
	}
	if err != nil {
		return inv, fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	return inv, nil
}

// maxRSSMiB is the exited process's peak resident set. Linux reports
// ru_maxrss in KiB.
func maxRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// cliSetup measures a CLI workload's set-up time: about 41 launches, spread
// evenly over the round's commands, each with an already-expired -timeout so
// it parses flags, resolves presets and scenario files, builds the evaluator
// and exits 124 before evaluating anything. It reports the median launch.
func (e *env) cliSetup(cases []cliCase) {
	per := (41 + len(cases) - 1) / len(cases)
	if e.quick {
		per = 3
	}
	var walls []float64
	e.speed()
	for range per {
		for _, c := range cases {
			inv, _ := e.invoke("calculon", append(append([]string(nil), c.args...), "-timeout", "1ns")...)
			if e.check(inv.code == 124, "set-up launch of %s exited %d, want 124", c.name, inv.code) {
				walls = append(walls, inv.wall.Seconds())
			}
		}
	}
	e.speed()
	e.set("setup_s", median(walls))
}

// cliCase is one command of a CLI workload's round.
type cliCase struct {
	name string
	args []string
	// work parses the number of strategies (or serving engine
	// configurations) the command reports evaluating.
	work func(stdout []byte) (int, error)
	// verify checks the first output against an independent expectation.
	verify func(stdout []byte) error
}

// runCLI runs the round of cases reps times, reading the host's speed after
// every invocation, and reports the end-to-end metrics over every
// invocation. Every repetition of a case must print byte-identical output to
// the first.
func (e *env) runCLI(cases []cliCase, reps int) {
	var walls, rss []float64
	var work, wallSum float64
	first := make([][]byte, len(cases))
	start := time.Now()
	for rep := range reps {
		if rep >= 2 && time.Since(start) > 3*time.Duration(e.seconds)*time.Second {
			e.logf("stopping after %d of %d rounds: over three times -seconds", rep, reps)
			break
		}
		for i, c := range cases {
			inv, err := e.invoke("calculon", c.args...)
			e.speed()
			if !e.ok(err, c.name) {
				continue
			}
			walls = append(walls, ms(inv.wall))
			wallSum += inv.wall.Seconds()
			rss = append(rss, inv.rssMiB)
			n, err := c.work(inv.stdout)
			if e.ok(err, c.name+": parsing output") {
				work += float64(n)
			}
			if first[i] == nil {
				first[i] = inv.stdout
				if c.verify != nil {
					e.ok(c.verify(inv.stdout), c.name+": checking output")
				}
				continue
			}
			e.check(bytes.Equal(first[i], inv.stdout), "%s: repetition %d printed different output than the first", c.name, rep+1)
		}
	}
	e.logf("%d invocations in %.1f s", len(walls), time.Since(start).Seconds())
	e.set("latency_p50_ms", median(walls))
	e.set("latency_tail_ms", tail(walls))
	if wallSum > 0 {
		e.set("strategies_per_s", work/wallSum)
		e.set("requests_per_s", float64(len(walls))/wallSum)
	}
	e.set("peak_rss_mb", median(rss))
}

// table2 reports the model's error against the published Selene batch times
// (the paper's Table 2), as the built CLI prints them.
func (e *env) table2() {
	inv, err := e.invoke("calculon", "study", "table2", "-json")
	if !e.ok(err, "table2") {
		return
	}
	var rows []experiments.ValidationRow
	if !e.ok(json.Unmarshal(inv.stdout, &rows), "table2: parsing output") ||
		!e.check(len(rows) == 8, "table2: %d rows, want 8", len(rows)) {
		return
	}
	avg, worst := experiments.ValidationStats(rows)
	e.set("table2_avg_err_pct", avg)
	e.set("table2_max_err_pct", worst)
}

// trainSearch is the paper's headline execution search, repeated.
func trainSearch(e *env) {
	c := genTrain(e.seed, e.quick)
	m, sys, err := c.resolve()
	if !e.ok(err, "resolving the search") {
		return
	}
	// The enumeration's closed-form size is what the CLI must report
	// evaluating: every strategy of the space, pruned or not.
	want := execution.EnumOptions{Procs: sys.Procs, Features: execution.FeatureAll, HasMem2: sys.Mem2.Present()}.SpaceSize(m)
	cases := []cliCase{{
		name: "search",
		args: c.args(e.workers),
		work: func(out []byte) (int, error) {
			var v struct {
				Evaluated int       `json:"evaluated"`
				Best      *struct{} `json:"best"`
			}
			if err := json.Unmarshal(out, &v); err != nil {
				return 0, err
			}
			if v.Best == nil {
				return 0, fmt.Errorf("no best configuration")
			}
			return v.Evaluated, nil
		},
		verify: func(out []byte) error {
			var v struct {
				Evaluated int `json:"evaluated"`
			}
			if err := json.Unmarshal(out, &v); err != nil {
				return err
			}
			if v.Evaluated != want {
				return fmt.Errorf("evaluated %d strategies, the space has %d", v.Evaluated, want)
			}
			return nil
		},
	}}
	e.cliSetup(cases)
	e.runCLI(cases, e.scaled(5.5, 2))
}

var sweptRE = regexp.MustCompile(`^swept (\d+) sizes: evaluated (\d+) strategies`)

// sizeSweep is the §5.2 capacity-tight system-size sweep, one command per
// model per round.
func sizeSweep(e *env) {
	cmds := genSweep(e.seed, e.quick)
	var cases []cliCase
	for _, c := range cmds {
		m, tmpl, err := c.resolve()
		if !e.ok(err, "resolving the sweep") {
			return
		}
		sizes := search.Sizes(c.Step, c.Max)
		want := 0
		for _, n := range sizes {
			want += execution.EnumOptions{Procs: n, Features: execution.FeatureAll, PinBeneficial: true,
				MaxInterleave: 4, HasMem2: tmpl.Mem2.Present()}.SpaceSize(m)
		}
		cases = append(cases, cliCase{
			name: "scaling " + c.Model,
			args: c.args(e.workers),
			work: func(out []byte) (int, error) {
				sc := bufio.NewScanner(bytes.NewReader(out))
				if !sc.Scan() {
					return 0, fmt.Errorf("empty output")
				}
				g := sweptRE.FindStringSubmatch(sc.Text())
				if g == nil {
					return 0, fmt.Errorf("unexpected summary line %q", sc.Text())
				}
				return strconv.Atoi(g[2])
			},
			verify: func(out []byte) error {
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				g := sweptRE.FindStringSubmatch(lines[0])
				if g == nil {
					return fmt.Errorf("unexpected summary line %q", lines[0])
				}
				if g[1] != itoa(len(sizes)) || g[2] != itoa(want) {
					return fmt.Errorf("swept %s sizes and %s strategies, want %d and %d", g[1], g[2], len(sizes), want)
				}
				if rows := len(lines) - 2; rows != len(sizes) {
					return fmt.Errorf("%d CSV rows, want %d", rows, len(sizes))
				}
				return nil
			},
		})
	}
	e.cliSetup(cases)
	e.runCLI(cases, e.scaled(5, 2))
}

// serveSweep is the serving right-sizing sweep over generated scenarios.
func serveSweep(e *env) {
	scenarios := genScenarios(e.seed, e.quick)
	sizes := search.Sizes(serveStep, serveMax(e.quick))
	var cases []cliCase
	for i, sc := range scenarios {
		path := filepath.Join(e.work, fmt.Sprintf("scenario-%d.json", i))
		data, err := json.MarshalIndent(sc, "", "  ")
		if err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
		if !e.ok(err, "writing a scenario") {
			return
		}
		cases = append(cases, cliCase{
			name: "serve-search " + sc.Name,
			args: []string{"serve-search", "-scenario", path, "-step", itoa(serveStep),
				"-max", itoa(serveMax(e.quick)), "-json", "-workers", itoa(e.workers)},
			work: func(out []byte) (int, error) {
				var pts []serving.SizeResult
				if err := json.Unmarshal(out, &pts); err != nil {
					return 0, err
				}
				if len(pts) != len(sizes) {
					return 0, fmt.Errorf("%d budgets in the output, want %d", len(pts), len(sizes))
				}
				n := 0
				for i, p := range pts {
					if p.Procs != sizes[i] {
						return 0, fmt.Errorf("budget %d is %d procs, want %d", i, p.Procs, sizes[i])
					}
					n += p.Result.Evaluated
				}
				return n, nil
			},
		})
	}
	e.cliSetup(cases)
	e.runCLI(cases, e.scaled(0.82*float64(len(cases)), 2))
}
