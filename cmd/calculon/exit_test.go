package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunAsMain turns the test binary into the real CLI: when
// CALCULON_BE_MAIN is set, it replaces os.Args with CALCULON_ARGS
// (newline-separated) and calls main(), so the exit-code tests below can
// observe the process-level contract without a separate go build.
func TestRunAsMain(t *testing.T) {
	if os.Getenv("CALCULON_BE_MAIN") != "1" {
		t.Skip("helper for the exit-code tests; not a test on its own")
	}
	os.Args = []string{"calculon"}
	if os.Getenv("CALCULON_PAUSE_SEARCH") == "1" {
		searchContext = func(ctx context.Context) context.Context { return &pausingContext{Context: ctx} }
	}
	if env := os.Getenv("CALCULON_ARGS"); env != "" {
		os.Args = append(os.Args, strings.Split(env, "\n")...)
	}
	main()
	// main returned without exiting: the success path. The test framework
	// exits 0 from here.
}

// beMain re-executes the test binary as the CLI with the given args.
func beMain(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run", "^TestRunAsMain$")
	cmd.Env = append(os.Environ(),
		"CALCULON_BE_MAIN=1",
		"CALCULON_ARGS="+strings.Join(args, "\n"))
	return cmd
}

// TestExitCodeConvention is the table the daemon reuses: 0 success, 2 usage
// (unknown subcommand, unknown flag, bad flag value, no arguments — each
// with a usage message on stderr), 124 timeout, 130 SIGINT.
func TestExitCodeConvention(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		want       int
		wantStderr string
	}{
		{"success", []string{"presets"}, 0, ""},
		{"no arguments", nil, 2, "usage:"},
		{"unknown subcommand", []string{"bogus"}, 2, "unknown command"},
		{"unknown flag", []string{"search", "-definitely-not-a-flag"}, 2, "flag provided but not defined"},
		{"bad flag value", []string{"run", "-tp", "zebra"}, 2, "invalid value"},
		{"infer non-dividing tp", []string{"infer", "-model", "gpt3-175B", "-tp", "7"}, 2, "infeasible"},
		{"infer non-dividing pp", []string{"infer", "-model", "gpt3-175B", "-tp", "8", "-pp", "7"}, 2, "infeasible"},
		// A step that does not advance is an empty sweep, not an endless one.
		{"scaling zero step", []string{"scaling", "-model", "gpt3-13B", "-step", "0", "-max", "64"}, 1, "empty size range"},
		{"scaling negative step", []string{"scaling", "-model", "gpt3-13B", "-step", "-8", "-max", "64"}, 1, "empty size range"},
		{"serve-search negative step", []string{"serve-search", "-model", "gpt3-13B", "-step", "-8", "-max", "64"}, 1, "empty size range"},
		// A NaN objective fails every comparison, so it must fail validation
		// instead of admitting every deployment.
		{"serve-search NaN SLO", []string{"serve-search", "-model", "gpt3-13B", "-procs", "64", "-ttft", "NaN", "-tpot", "NaN"}, 1, "SLO bounds must be positive"},
		// The deadline has passed before the search starts, so no machine
		// is fast enough to finish it first.
		{"timeout", []string{"search", "-model", "gpt3-175B", "-batch", "3072", "-procs", "4096",
			"-timeout", "1ns"}, 124, "timed out"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cmd := beMain(tc.args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			code := 0
			if err != nil {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
				}
				code = ee.ExitCode()
			}
			if code != tc.want {
				t.Fatalf("calculon %v exited %d, want %d\nstderr: %s",
					tc.args, code, tc.want, stderr.String())
			}
			if tc.wantStderr != "" && !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantStderr, stderr.String())
			}
		})
	}
}

// TestStudyRejectsSearchFlags: study honours only the timeout and
// profiling flags, so the search commands' -workers, -store and -progress
// are usage errors there instead of being accepted and ignored.
func TestStudyRejectsSearchFlags(t *testing.T) {
	for _, flag := range []string{"-workers", "-store", "-progress"} {
		cmd := beMain("study", "table2", flag, "1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("study table2 %s 1: err %v, want exit 2\nstderr: %s", flag, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined: "+flag) {
			t.Fatalf("stderr missing the undefined-flag message:\n%s", stderr.String())
		}
	}
}

// pausingContext pauses a search mid-flight: from the pauseAt-th call of
// Err on — the search's workers call it before each work chunk and its
// producer before each (t,p,d) subtree — every call waits for the context
// to be cancelled, and the first one announces the pause on stderr. The
// search below has 46 subtrees and thousands of chunks: with two
// workers, one of them has made a second call, so finished a chunk, before
// the pause, and most chunks are still to come.
type pausingContext struct {
	context.Context
	calls atomic.Int64
}

const pauseAt = 200

// pauseLine is what the child prints on stderr when it pauses.
const pauseLine = "calculon-test: search paused"

func (c *pausingContext) Err() error {
	if n := c.calls.Add(1); n >= pauseAt {
		if n == pauseAt {
			fmt.Fprintln(os.Stderr, pauseLine)
		}
		<-c.Done()
	}
	return c.Context.Err()
}

var stoppedEarlyRE = regexp.MustCompile(`search stopped early — evaluated (\d+)/(\d+)`)

// TestExitCodeSIGINT interrupts a long search mid-flight and expects the
// 130 convention with a partial-progress report, the process-level half of
// the cancellation contract. The child pauses its search once work is
// under way (pausingContext) and the interrupt is sent then, so it lands
// mid-search however fast the machine runs the search.
func TestExitCodeSIGINT(t *testing.T) {
	cmd := beMain("search", "-model", "gpt3-175B", "-batch", "3072", "-procs", "4096", "-workers", "2")
	cmd.Env = append(cmd.Env, "CALCULON_PAUSE_SEARCH=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killer := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() })
	defer killer.Stop()

	// Interrupt once the search has paused, then keep draining the pipe so
	// the child never blocks on a full one.
	scanner := bufio.NewScanner(stderr)
	var lines []string
	interrupted := false
	for scanner.Scan() {
		lines = append(lines, scanner.Text())
		if !interrupted && scanner.Text() == pauseLine {
			interrupted = true
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
		}
	}
	err = cmd.Wait()
	joined := strings.Join(lines, "\n")
	if !interrupted {
		t.Fatalf("the search never paused:\n%s", joined)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("interrupted search exited cleanly (err %v):\n%s", err, joined)
	}
	if code := ee.ExitCode(); code != 130 {
		t.Fatalf("interrupted search exited %d, want 130:\n%s", code, joined)
	}
	g := stoppedEarlyRE.FindStringSubmatch(joined)
	if g == nil || !strings.Contains(joined, "calculon: interrupted") {
		t.Fatalf("stderr missing the partial-progress report:\n%s", joined)
	}
	done, _ := strconv.Atoi(g[1])
	total, _ := strconv.Atoi(g[2])
	if done <= 0 || done >= total {
		t.Fatalf("the interrupt did not land mid-search: evaluated %d of %d", done, total)
	}
}
