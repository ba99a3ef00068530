package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// readDeclared loads the metrics BENCHMARK.json promises.
func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runBench runs one minimal-length invocation and returns its exit code,
// its standard output and the parsed result line.
func runBench(t *testing.T, workload, trace string, opt options) (int, string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.05", "--trace", trace}, &stdout, &stderr, opt)
	out := strings.TrimSpace(stdout.String())
	lines := strings.Split(out, "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %s: last line is not a result (exit %d): %v\nstdout:\n%s\nstderr:\n%s", workload, trace, code, err, out, stderr.String())
	}
	return code, out, res
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	d := readDeclared(t)
	// BENCHMARK.json may leave out a workload too unsteady for its bounds;
	// the benchmark still runs every workload it defines.
	for _, w := range d.Workloads {
		if _, err := lookup(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": d.EndToEnd, "1": d.PerLayer} {
			code, out, res := runBench(t, w.name, trace, options{})
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: exit %d, correct %v, %d of %d failed", w.name, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
				line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
				if !line.MatchString(out) {
					t.Errorf("%s trace %s: no printed line for %s in %s", w.name, trace, m.Name, m.Unit)
				}
			}
			if !regexp.MustCompile(`(?m)^metric fail_ratio +0\.000000 ratio$`).MatchString(out) {
				t.Errorf("%s trace %s: fail_ratio line missing or non-zero", w.name, trace)
			}
		}
	}
}

func TestPlantedCorruptionFails(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			code, out, res := runBench(t, w.name, trace, options{corrupt: true})
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Errorf("%s trace %s: corrupted readbacks gave exit %d, correct %v, %d failed", w.name, trace, code, res.Correct, res.Failed)
			}
			m := regexp.MustCompile(`(?m)^metric fail_ratio +(\S+) ratio$`).FindStringSubmatch(out)
			if m == nil || m[1] == "0.000000" {
				t.Errorf("%s trace %s: fail_ratio not above 0: %v", w.name, trace, m)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n          int
		p          float64
		wantBeyond int
	}{{19, 50, 9}, {39, 50, 19}, {40, 75, 10}, {100, 75, 25}, {2000, 75, 500}} {
		s := make([]float64, tc.n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		p, v, beyond := tailPercentile(s)
		if p != tc.p || beyond != tc.wantBeyond || v != s[tc.n-beyond-1] {
			t.Errorf("n=%d: p%v value %v beyond %d, want p%v beyond %d", tc.n, p, v, beyond, tc.p, tc.wantBeyond)
		}
	}
}
