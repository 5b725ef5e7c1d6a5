package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const testGoldens = "../internal/experiments/testdata"

// tiny shrinks a workload to a few seconds while keeping its shape.
func tiny(w benchWorkload) benchWorkload {
	w.live.sites, w.live.boots, w.live.minSamples = 6, 2, false
	w.live.viewChangesPerSiteSec = 2
	w.sweep.samples, w.sweep.minSweeps = 2, 1
	return w
}

// spec is the part of BENCHMARK.json the code must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads(testGoldens) {
		names = append(names, w.name)
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m] = true
	}
	var listed []string
	for _, w := range s.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(listed, ",") != strings.Join(names, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", listed, names)
	}
	for _, m := range s.EndToEnd {
		if !e2e[m.Name] || units[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s (%s) is not reported with that unit", m.Name, m.Unit)
		}
		delete(e2e, m.Name)
	}
	for m := range e2e {
		t.Errorf("end-to-end metric %s missing from BENCHMARK.json", m)
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, code %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if m.Name != perLayer[i][0] || m.Unit != perLayer[i][1] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), code %s (%s)",
				i, m.Name, m.Unit, perLayer[i][0], perLayer[i][1])
		}
	}
}

// exercised names the per-layer metrics that must read above zero,
// because every workload drives that layer.
var exercised = func() []string {
	m := []string{"session.build_ms", "membership.serve_ms", "membership.epochs", "rp.start_p50_ms",
		"rp.start_max_ms", "transport.bytes.hello", "transport.bytes.subscribe", "transport.bytes.routes",
		"transport.bytes.frame", "transport.bytes.peer_hello", "transport.dials", "transport.write_busy_ms",
		"transport.decode_us.routes", "transport.encode_us.routes", "stream.next_us", "stream.encode_us",
		"stream.decode_us", "rp.publish_tick_p50_us", "rp.publish_busy_ms", "runtime.alloc_bytes_per_frame",
		"runtime.mallocs_per_frame", "transport.decode_us.frame", "membership.applied_resubs",
		"rp.resubscribe_p50_ms", "transport.bytes.resubscribe", "transport.bytes.routes_update",
		"transport.decode_us.routes_update"}
	for _, f := range figures {
		m = append(m, "experiments."+f.name+"_ms")
	}
	return m
}()

func metricNames(r *result) []string {
	var names []string
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestSmokeEveryWorkload runs each workload at tiny size, untraced and
// traced, and checks that it passes its checks and emits every metric.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots live clusters")
	}
	for _, w := range workloads(testGoldens) {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := measure(context.Background(), w, 7, 4, false, "", "", "", &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := append([]string(nil), endToEnd...)
			sort.Strings(want)
			if got := metricNames(res); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("untraced metrics %v, want %v", got, want)
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) || m.Unit != units[name] {
					t.Errorf("%s = %v %s, want a positive value in %s", name, m.Value, m.Unit, units[name])
				}
			}

			dir := t.TempDir()
			spans := filepath.Join(dir, "spans.jsonl")
			cpu := filepath.Join(dir, "cpu.prof")
			mem := filepath.Join(dir, "mem.prof")
			out.Reset()
			res, err = measure(context.Background(), w, 7, 4, true, spans, cpu, mem, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced: failed checks\n%s", out.String())
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("traced run reports %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if got, ok := res.Metrics[m[0]]; !ok || got.Unit != m[1] {
					t.Errorf("per-layer metric %s missing or not in %s", m[0], m[1])
				}
			}
			for _, name := range exercised {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("per-layer metric %s = %v, want it measured", name, res.Metrics[name].Value)
				}
			}
			if !strings.Contains(out.String(), "tracing overhead") {
				t.Errorf("traced run does not report tracing overhead:\n%s", out.String())
			}
			for _, f := range []string{spans, cpu, mem} {
				if st, err := os.Stat(f); err != nil || st.Size() == 0 {
					t.Errorf("%s not written: %v", filepath.Base(f), err)
				}
			}
		})
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "view-churn", "--trace", "2"},
		{"--workload", "view-churn", "--seconds", "0"},
		{"--workload", "view-churn", "--cpuprofile", "cpu.prof"},
		{"--workload", "view-churn", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q, want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}
