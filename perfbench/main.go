package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"github.com/tele3d/tele3d/internal/stream"
)

// smallProfile is the small live profile large clusters stream (the
// session package's cluster default): 64x48 at 15 fps.
var smallProfile = stream.Profile{Width: 64, Height: 48, FPS: 15, CompressionRatio: 10}

// bootProfile is the small profile at a third of its frame rate, so a
// large cluster's frame path stays well below saturation on two cores.
var bootProfile = stream.Profile{Width: 64, Height: 48, FPS: 5, CompressionRatio: 10}

// benchWorkload is one named benchmark workload: a live session
// streamed under view changes, then the offline paper sweep. Every
// workload reports every end-to-end metric.
type benchWorkload struct {
	name  string
	live  liveSpec
	sweep sweepSpec
	// headline is the end-to-end metric the tracing overhead is read on.
	headline string
}

// sweepShare is the share of a run's seconds the paper sweep gets; the
// live session streams for the rest.
const sweepShare = 1.0 / 3

// The workloads; doc.go records why each was chosen.
func workloads(goldenDir string) []benchWorkload {
	sweep := sweepSpec{samples: 200, minSweeps: 3, goldenDir: goldenDir}
	return []benchWorkload{
		{
			name: "cluster-boot",
			live: liveSpec{
				sites: 500, cameras: 8, displays: 2, profile: bootProfile,
				boots: 3, viewChangesPerSiteSec: 0.05, minSamples: true,
			},
			sweep: sweep, headline: "setup_s",
		},
		{
			name: "paper-stream",
			live: liveSpec{
				sites: 20, cameras: 8, displays: 2, profile: stream.DefaultProfile(),
				boots: 4, viewChangesPerSiteSec: 1.2, minSamples: true,
			},
			sweep: sweep, headline: "frame_latency_p50_ms",
		},
		{
			name: "view-churn",
			live: liveSpec{
				sites: 200, cameras: 8, displays: 2, profile: smallProfile,
				boots: 3, viewChangesPerSiteSec: 0.2, minSamples: true,
			},
			sweep: sweep, headline: "disruption_p50_ms",
		},
	}
}

// endToEnd lists the end-to-end metrics every workload reports, in
// report order.
var endToEnd = []string{
	"setup_s", "frame_latency_p50_ms", "frame_latency_p99_ms", "delivery_ratio",
	"disruption_p50_ms", "disruption_p99_ms", "cpu_cores", "heap_mb_per_site", "sweep_s",
}

// units gives every end-to-end metric's unit; a metric missing here is a
// bug.
var units = map[string]string{
	"setup_s":              "s",
	"frame_latency_p50_ms": "ms",
	"frame_latency_p99_ms": "ms",
	"delivery_ratio":       "fraction",
	"disruption_p50_ms":    "ms",
	"disruption_p99_ms":    "ms",
	"cpu_cores":            "cores",
	"heap_mb_per_site":     "MB",
	"sweep_s":              "s",
}

// perLayer lists every per-layer metric a traced run reports, with its
// unit.
var perLayer = func() [][2]string {
	m := [][2]string{
		{"session.build_ms", "ms"},
		{"membership.serve_ms", "ms"},
		{"membership.construct_ms", "ms"},
		{"membership.batch_apply_ms", "ms"},
		{"membership.route_rebuild_ms", "ms"},
		{"membership.epochs", "count"},
		{"membership.applied_resubs", "count"},
		{"rp.start_p50_ms", "ms"},
		{"rp.start_max_ms", "ms"},
		{"rp.resubscribe_p50_ms", "ms"},
		{"rp.resubscribe_p99_ms", "ms"},
		{"rp.undelivered_gains", "count"},
		{"rp.publish_tick_p50_us", "us"},
		{"rp.publish_tick_p99_us", "us"},
		{"rp.publish_busy_ms", "ms"},
		{"rp.frames_stale", "count"},
		{"rp.frames_duplicate", "count"},
		{"rp.frames_dropped", "count"},
		{"rp.retries", "count"},
	}
	for _, name := range msgNames[1:] {
		m = append(m, [2]string{"transport.bytes." + name, "bytes"})
	}
	for _, name := range msgNames[1:] {
		m = append(m, [2]string{"transport.msgs." + name, "count"})
	}
	m = append(m,
		[2]string{"transport.dials", "count"},
		[2]string{"transport.dial_p50_ms", "ms"},
		[2]string{"transport.write_busy_ms", "ms"},
	)
	for _, t := range replayedTypes {
		m = append(m, [2]string{"transport.encode_us." + msgNames[t], "us"})
	}
	for _, t := range replayedTypes {
		m = append(m, [2]string{"transport.decode_us." + msgNames[t], "us"})
	}
	m = append(m,
		[2]string{"stream.next_us", "us"},
		[2]string{"stream.encode_us", "us"},
		[2]string{"stream.decode_us", "us"},
	)
	for _, f := range figures {
		m = append(m, [2]string{"experiments." + f.name + "_ms", "ms"})
	}
	return append(m,
		[2]string{"runtime.alloc_bytes_per_frame", "bytes"},
		[2]string{"runtime.mallocs_per_frame", "count"},
		[2]string{"runtime.gc_cycles", "count"},
		[2]string{"runtime.gc_pause_ms", "ms"},
		[2]string{"bench.publish_lag_p99_ms", "ms"},
		[2]string{"bench.resub_lag_p99_ms", "ms"},
		[2]string{"bench.trace_overhead_pct", "%"},
	)
}()

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one pass over a workload measured, in reportable
// form.
type outcome struct {
	e2e       map[string]float64
	samples   map[string]int // sample counts behind percentile metrics
	layer     map[string]float64
	attempted int64
	failed    int64
	checks
	notes []string
}

// maxReportedFailures caps the failed-check messages kept for the report.
const maxReportedFailures = 10

// checks counts failed correctness checks and keeps the first messages.
type checks struct {
	failures int
	messages []string
}

func (c *checks) fail(format string, args ...any) {
	c.failures++
	if len(c.messages) < maxReportedFailures {
		c.messages = append(c.messages, fmt.Sprintf(format, args...))
	}
}

func (c *checks) merge(o checks) {
	c.failures += o.failures
	for _, m := range o.messages {
		if len(c.messages) < maxReportedFailures {
			c.messages = append(c.messages, m)
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cluster-boot, paper-stream, view-churn")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds: the streaming windows, then the sweep's share")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: also run a traced pass and report per-layer metrics")
	spans := fs.String("spans", "", "span file of the traced pass; default .bench_build/spans/<workload>-<seed>.jsonl")
	cpuprofile := fs.String("cpuprofile", "", "with -trace 1: write a CPU profile of the traced pass")
	memprofile := fs.String("memprofile", "", "with -trace 1: write a heap profile after the traced pass")
	goldenDir := fs.String("goldens", filepath.Join("internal", "experiments", "testdata"), "directory of the figure goldens")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: bad arguments")
		fs.Usage()
		return 2
	}
	if *trace == 0 && (*cpuprofile != "" || *memprofile != "") {
		fmt.Fprintln(stderr, "perfbench: -cpuprofile and -memprofile need -trace 1")
		return 2
	}
	var w *benchWorkload
	for _, cand := range workloads(*goldenDir) {
		if cand.name == *name {
			cand := cand
			w = &cand
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
	}
	res, err := measure(context.Background(), *w, *seed, *seconds, *trace == 1, *spans, *cpuprofile, *memprofile, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the untraced pass and, when traced, the traced pass, and
// assembles the result.
func measure(ctx context.Context, w benchWorkload, seed int64, seconds float64, traced bool, spansPath, cpuprofile, memprofile string, out io.Writer) (*result, error) {
	plain, err := runPass(ctx, w, seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	report(out, w, "untraced", plain)
	res := &result{
		Correct:   plain.failures == 0,
		Attempted: plain.attempted,
		Failed:    plain.failed,
		Metrics:   make(map[string]metric),
	}
	if !traced {
		for _, name := range endToEnd {
			res.Metrics[name] = metric{Value: plain.e2e[name], Unit: units[name]}
		}
		return res, nil
	}

	tr := newTracer()
	var prof *os.File
	if cpuprofile != "" {
		if prof, err = os.Create(cpuprofile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return nil, err
		}
	}
	tp, err := runPass(ctx, w, seed, seconds, tr)
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	if memprofile != "" {
		if err := writeHeapProfile(memprofile); err != nil {
			return nil, err
		}
	}
	if err := tr.writeJSONL(spansPath); err != nil {
		return nil, err
	}
	report(out, w, "traced", tp)
	fmt.Fprintf(out, "%d spans written to %s\n", tr.len(), spansPath)
	fmt.Fprintln(out, "tracing overhead (traced vs untraced):")
	for _, name := range endToEnd {
		fmt.Fprintf(out, "  %-22s %+.1f%%\n", name, overheadPct(tp.e2e[name], plain.e2e[name]))
	}
	tp.layer["bench.trace_overhead_pct"] = overheadPct(tp.e2e[w.headline], plain.e2e[w.headline])

	res.Correct = res.Correct && tp.failures == 0
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	for _, m := range perLayer {
		res.Metrics[m[0]] = metric{Value: tp.layer[m[0]], Unit: m[1]}
	}
	return res, nil
}

func overheadPct(traced, plain float64) float64 {
	if plain == 0 {
		return 0
	}
	return 100 * (traced - plain) / plain
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runPass runs one pass of a workload, traced when tr is non-nil: the
// live session first, then the paper sweep.
func runPass(ctx context.Context, w benchWorkload, seed int64, seconds float64, tr *tracer) (*outcome, error) {
	p, err := runLivePass(ctx, w.live, seed, seconds*(1-sweepShare), tr)
	if err != nil {
		return nil, err
	}
	o := liveOutcome(w.live, p)
	if tr != nil {
		put := func(name string, v float64) { o.layer[name] = v }
		if err := streamMicro(w.live.profile, put); err != nil {
			return nil, err
		}
		if err := codecMicro(p.fabric, put); err != nil {
			return nil, err
		}
	}
	sw, err := runSweepPass(w.sweep, seed, seconds*sweepShare, tr)
	if err != nil {
		return nil, err
	}
	o.addSweep(sw)
	return o, nil
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, samples: map[string]int{}, layer: map[string]float64{}}
}

// addSweep adds the sweep's metrics, figure calls and checks.
func (o *outcome) addSweep(p *sweepPass) {
	// sweep_s sums each figure's median time, so a stall of the shared
	// host during one call does not count, as it would in a median of
	// whole sweeps.
	sweepMs := 0.0
	for name, xs := range p.callMs {
		o.layer["experiments."+name+"_ms"] = median(xs)
		sweepMs += median(xs)
	}
	o.e2e["sweep_s"] = sweepMs / 1000
	o.samples["sweep_s"] = p.sweeps
	o.attempted += int64(p.calls)
	o.failed += int64(p.failures)
	o.merge(p.checks)
}

func liveOutcome(sp liveSpec, p *livePass) *outcome {
	o := newOutcome()
	o.checks = p.checks
	o.e2e["setup_s"] = median(p.setupS)
	o.samples["setup_s"] = len(p.setupS)
	o.e2e["heap_mb_per_site"] = median(p.heapMB)
	o.samples["heap_mb_per_site"] = len(p.heapMB)
	lat := summarize(p.frameLat)
	win := p.window
	dis := summarize(win.disruption)
	o.e2e["frame_latency_p50_ms"], o.e2e["frame_latency_p99_ms"] = lat.P50, lat.P99
	o.samples["frame_latency_p50_ms"], o.samples["frame_latency_p99_ms"] = lat.N, lat.N
	o.e2e["disruption_p50_ms"], o.e2e["disruption_p99_ms"] = dis.P50, dis.P99
	o.samples["disruption_p50_ms"], o.samples["disruption_p99_ms"] = dis.N, dis.N
	if win.owed > 0 {
		o.e2e["delivery_ratio"] = float64(win.displayed) / float64(win.owed)
	}
	o.samples["delivery_ratio"] = int(win.owed)
	o.e2e["cpu_cores"] = p.cpuBusy.Seconds() / p.cpuWall.Seconds()
	o.samples["cpu_cores"] = sp.boots // one per streaming window
	o.attempted = int64(win.admissions)
	o.failed = int64(win.starved)
	o.notes = append(o.notes, fmt.Sprintf("%d view changes: %d gains delivered, %d undelivered, %d withdrawn before their first frame",
		p.events, len(win.disruption), win.undelivered, win.withdrawn))
	if sp.minSamples {
		if !lat.p99OK() {
			o.fail("frame latency: %d samples, too few beyond p99", lat.N)
		}
		if !dis.p99OK() {
			o.fail("disruption: %d samples, too few beyond p99", dis.N)
		}
	}

	l := o.layer
	l["session.build_ms"] = median(p.buildMs)
	l["membership.serve_ms"] = median(p.serveMs)
	l["membership.construct_ms"] = p.phases.ConstructMs
	l["membership.batch_apply_ms"] = p.phases.BatchApplyMs
	l["membership.route_rebuild_ms"] = p.phases.RouteRebuildMs
	l["membership.epochs"] = float64(p.epochs)
	l["membership.applied_resubs"] = float64(p.applied)
	start := summarize(p.startMs)
	l["rp.start_p50_ms"] = start.P50
	l["rp.start_max_ms"] = maxOf(p.startMs)
	resub := summarize(p.resubMs)
	l["rp.resubscribe_p50_ms"], l["rp.resubscribe_p99_ms"] = resub.P50, resub.P99
	o.samples["rp.resubscribe_p99_ms"] = resub.N
	l["rp.undelivered_gains"] = float64(p.window.undelivered)
	pub := summarize(p.publishUs)
	l["rp.publish_tick_p50_us"], l["rp.publish_tick_p99_us"] = pub.P50, pub.P99
	o.samples["rp.publish_tick_p99_us"] = pub.N
	l["rp.publish_busy_ms"] = ms(p.publishBusy)
	l["rp.frames_stale"] = float64(p.stale)
	l["rp.frames_duplicate"] = float64(p.dup)
	l["rp.frames_dropped"] = float64(p.drop)
	l["rp.retries"] = float64(p.retries)
	if cf := p.fabric; cf != nil {
		for t := 1; t < numMsgTypes; t++ {
			l["transport.bytes."+msgNames[t]] = float64(cf.bytes[t].Load())
			l["transport.msgs."+msgNames[t]] = float64(cf.msgs[t].Load())
		}
		dials := cf.dialStats()
		l["transport.dials"] = float64(len(dials))
		l["transport.dial_p50_ms"] = summarize(dials).P50
		l["transport.write_busy_ms"] = float64(cf.writeNs.Load()) / 1e6
	}
	if d := p.window.displayed; d > 0 {
		l["runtime.alloc_bytes_per_frame"] = float64(p.allocBytes) / float64(d)
		l["runtime.mallocs_per_frame"] = float64(p.mallocs) / float64(d)
	}
	l["runtime.gc_cycles"] = float64(p.gcCycles)
	l["runtime.gc_pause_ms"] = ms(p.gcPause)
	l["bench.publish_lag_p99_ms"] = summarize(p.publishLag).P99
	o.samples["bench.publish_lag_p99_ms"] = len(p.publishLag)
	l["bench.resub_lag_p99_ms"] = summarize(p.resubLag).P99
	o.samples["bench.resub_lag_p99_ms"] = len(p.resubLag)
	return o
}

// maxOf returns the largest of non-negative values, 0 for none.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// report prints a pass's metrics, with the sample count behind each, and
// its failed checks.
func report(out io.Writer, w benchWorkload, pass string, o *outcome) {
	fmt.Fprintf(out, "%s (%s): attempted %d, failed %d\n", w.name, pass, o.attempted, o.failed)
	for _, name := range endToEnd {
		fmt.Fprintf(out, "  %-22s %12.4f %-8s n=%d\n", name, o.e2e[name], units[name], o.samples[name])
	}
	if len(o.layer) > 0 && pass == "traced" {
		names := make([]string, 0, len(o.layer))
		for name := range o.layer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			line := fmt.Sprintf("  %-36s %14.3f", name, o.layer[name])
			if n, ok := o.samples[name]; ok {
				line += fmt.Sprintf("  n=%d", n)
				if strings.Contains(name, "_p99_") && n < 100*minBeyond {
					line += " (fewer than ten samples beyond p99)"
				}
			}
			fmt.Fprintln(out, line)
		}
	}
	for _, n := range o.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	for _, m := range o.messages {
		fmt.Fprintf(out, "  FAILED CHECK: %s\n", m)
	}
	if o.failures > len(o.messages) {
		fmt.Fprintf(out, "  ... %d failed checks in all\n", o.failures)
	}
}
