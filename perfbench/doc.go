// Command perfbench is the repository's end-to-end benchmark. It measures
// the live plane — membership server, rendezvous points and the virtual
// fabric — with its own open-loop load generator, then the offline paper
// sweep, and checks every output it measures.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload view-churn --seed 1 --seconds 10 --trace 0
//
// run.sh builds the binary from source into .bench_build/ (Go build cache
// included) and runs it. Every metric is printed by name, unit and sample
// count; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end metrics, every one on every workload. With --trace 1 the run
// makes the same untraced pass, then a traced pass, and reports the
// per-layer metrics of the traced pass, the difference between the two
// passes' end-to-end numbers (tracing overhead), and writes the traced
// pass's spans as JSONL (--spans, default
// .bench_build/spans/<workload>-<seed>.jsonl). --cpuprofile and
// --memprofile profile the traced pass. A failed check prints
// "correct": false and exits 1; a run that cannot complete exits
// non-zero without a result.
//
// BENCH_*.json and cmd/benchjson stay what they are: go test -bench
// micro-benchmarks of the offline overlay and simulator, untouched by
// this benchmark.
//
// # Workloads
//
// The load generator uses two goroutines, the machine's core count: one
// publishes a tick (rp.Node.PublishTick on every site) every frame
// interval and drains every site's display queue; the other issues the
// view-change trace. It is an open loop: tick k is due at t0 + k·interval
// and a late tick is published late, never skipped. A frame is timed from
// its due capture time to rp.Delivery.ReceivedAt, a view change from its
// due time to the first displayed frame of each gained stream, so a stall
// shows up in latency; bench.publish_lag_p99_ms and
// bench.resub_lag_p99_ms report how late the generator ran. The
// generator never calls session.RunLive, which does not drain deliveries, reports
// only means, and publishes on a time.Ticker that drops late ticks.
//
// A run has two phases. The live phase gets two thirds of the seconds:
// it boots the workload's cluster several times, each boot a fresh
// session, and streams one window on each under a Poisson view-change
// trace (ViewChangeMix 1), the last second of each window free of view
// changes so gains can land. Changes are issued in trace order, one in
// flight, so admissions match session.SimPrediction's. setup_s is the
// median boot. Each workload fixes its session (site placement, fields
// of view, the overlay; layoutSeed); the workload seed drives what flows
// through it: frame payloads, the view-change traces and the fabric's
// draws. The sweep phase gets the last third: experiments.Runner
// regenerates every figure (Fig 8a–d, 9, 10, 11, the three ablations and
// the churn sweep) at 200 samples with Parallelism = the CPU count, at
// least three times and until its share is spent. The sweep is the same on
// every workload; it keeps the overlay construction, workload sampling
// and simulator layers, which the live phase barely touches, gated on
// every run.
//
//   - cluster-boot: 500 sites, 8 cameras and 2 displays each, the small
//     frame size at 5 fps, 0.05 view changes per site per second; three
//     boots. Control-plane set-up dominates: every RP receives an O(N)
//     JSON routing table and the first frames open thousands of lazy
//     peer dials, while frames are tiny. Mesh deletion and wire-format
//     work show here. At 10 fps this cluster took 1 of two cores when the
//     shared host ran fast and 1.9 when it ran slow, and saturation
//     spread the latency tails by 20-30% from run to run; at 5 fps it
//     stays near 1 core even on a slow host.
//     (1,000 sites peak at 2.2 GB RSS; 500 keep the benchmark near 1 GB.)
//   - paper-stream: 20 sites (the paper's largest N), 8 cameras, 2
//     displays, stream.DefaultProfile() (59 KB frames, about 7 Mbps per
//     stream), 1.2 view changes per site per second; four boots. The
//     frame path — generation, copies, relays — does most of the work.
//     A 20-site view change gains about three streams, so the rate is
//     what it takes for more than a thousand disruption samples a run.
//   - view-churn: 200 sites, small live profile (64x48 at 15 fps), 0.2
//     view changes per site per second, about 40 a second; three boots.
//     Routing-table writes (membership apply, rebuild, deltas, RP merge)
//     run beside frame relays reading the swapped tables. The offered
//     load stays below saturation (under 1 core); at 100 changes a second
//     the tail spread grows several-fold.
//
// # End-to-end metrics
//
//   - setup_s (s): from session.BuildCluster until every site has
//     displayed one frame of every stream it admits. Median over the
//     pass's boots.
//   - frame_latency_p50_ms, frame_latency_p99_ms (ms): due capture time
//     to display, over every displayed window frame.
//   - delivery_ratio (fraction): frames
//     displayed over frames owed. A boot-time (site, stream) pair is owed
//     every window tick while admitted; a gained pair from its first
//     displayed frame (the wait before it is its disruption); a pair that
//     ends is owed through its last displayed frame. Frames a reroute
//     loses in flight lower the ratio.
//   - disruption_p50_ms, disruption_p99_ms (ms): due time of a view
//     change to the first displayed frame of each accepted gain.
//   - cpu_cores (cores): process CPU time (getrusage) over wall time of
//     the streaming windows.
//   - heap_mb_per_site (MB): live heap after a forced GC at the end of a
//     window, before teardown, over the site count; median over the pass.
//   - sweep_s (s): wall time to regenerate every figure: the sum, over
//     the figures, of each one's median time over the pass's sweeps.
//
// A percentile is reported only from a sample with at least ten values
// beyond it (summarize); a workload whose p99 lacks them fails its run.
// The attempted operations are the admitted (site, stream) pairs a
// window owes frames and the figure calls of the sweep. An operation fails when a pair displays no
// frame at all: an accepted gain that never arrives, a boot-time pair that
// goes dark for a whole window. A gain its site withdraws again before the
// first frame can arrive is owed nothing and reported as withdrawn.
//
// # Correctness checks
//
// A failed check fails the run. Live: every rp.Node.Start succeeds and
// every node's Err is nil at the end; every displayed frame belongs to a
// stream its site admits at that moment, and each (site, stream) pair
// shows strictly increasing Seq; each site's admitted set at the end
// equals its installed routing table; each view change's accepted and
// rejected counts equal session.SimPrediction's for the same trace.
// Sweep: the figures at the golden sample count, rendered with
// experiments.WriteCSV, equal internal/experiments/testdata/*.golden byte
// for byte, and every repetition of the 200-sample sweep renders the same
// bytes.
//
// # Per-layer metrics and what they should move
//
// The traced pass times calls into each module's public functions from
// outside (spans: name, start, end, parent; spans of one view change
// share its event index) and counts the wire through a transport.Fabric
// wrapper that parses the framing of every Write. Counts and busy times
// (membership phases, publish_busy_ms, write_busy_ms, gc_pause_ms) are
// totals over the pass; per-call timings are medians or percentiles over
// it.
//
//   - session.build_ms (session.BuildCluster): setup_s on cluster-boot.
//   - membership.serve_ms (until Serve returns): setup_s on cluster-boot.
//     membership.construct_ms, .batch_apply_ms, .route_rebuild_ms
//     (PhaseStats), .epochs, .applied_resubs: disruption_p99_ms and
//     cpu_cores on view-churn.
//   - rp.start_p50_ms, rp.start_max_ms: setup_s on cluster-boot.
//   - rp.resubscribe_p50_ms, rp.resubscribe_p99_ms, rp.undelivered_gains:
//     disruption_p99_ms on view-churn; the median resubscribe is a few ms
//     of a disruption near 120 ms, so a gain shows in the tail.
//   - rp.publish_tick_p50_us, rp.publish_tick_p99_us, rp.publish_busy_ms,
//     rp.frames_stale, .frames_duplicate, .frames_dropped, rp.retries:
//     cpu_cores and frame_latency_p99_ms on paper-stream.
//   - transport.bytes.<type>, transport.msgs.<type> (hello, subscribe,
//     routes, frame, peer_hello, resubscribe, routes_update, error),
//     transport.dials, transport.dial_p50_ms, transport.write_busy_ms:
//     routes bytes and dials move setup_s and heap_mb_per_site on
//     cluster-boot; frame bytes and write time move cpu_cores on
//     paper-stream; routes_update bytes move disruption_p99_ms on
//     view-churn.
//   - transport.encode_us.<type>, transport.decode_us.<type> (routes,
//     routes_update, frame), replaying the largest message of each type
//     the pass sent through WriteMessage and ReadMessage: routes decode
//     moves setup_s on cluster-boot, the frame codec cpu_cores on
//     paper-stream.
//   - stream.next_us, stream.encode_us, stream.decode_us, at the
//     workload's profile: cpu_cores on paper-stream, nothing on
//     cluster-boot.
//   - experiments.<figure>_ms, one per Runner call of the sweep: sweep_s,
//     and nothing the live phase reports.
//   - runtime.alloc_bytes_per_frame, runtime.mallocs_per_frame (per
//     displayed window frame), runtime.gc_cycles, runtime.gc_pause_ms:
//     cpu_cores and heap_mb_per_site.
//   - bench.publish_lag_p99_ms, bench.resub_lag_p99_ms: how late the
//     generator ran; a growing lag marks a saturated run, not a measured
//     one. bench.trace_overhead_pct: the traced pass's change of the
//     workload's headline metric.
package main
