package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"github.com/tele3d/tele3d/internal/membership"
	"github.com/tele3d/tele3d/internal/overlay"
	"github.com/tele3d/tele3d/internal/rp"
	"github.com/tele3d/tele3d/internal/session"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
	"github.com/tele3d/tele3d/internal/workload"
)

// liveSpec describes a live workload: a cluster booted on the virtual
// fabric, then a measured streaming window under view changes.
type liveSpec struct {
	sites, cameras, displays int
	profile                  stream.Profile
	// boots is the number of set-ups per pass. Each streams one window,
	// with its own view-change trace, and the samples are pooled: several
	// short windows on fresh sessions drift less, and vary less from seed
	// to seed, than one long window.
	boots int
	// viewChangesPerSiteSec is the Poisson view-change rate per site.
	viewChangesPerSiteSec float64
	// minSamples requires every reported p99 to have at least minBeyond
	// samples beyond it.
	minSamples bool
}

// layoutSeed fixes each live workload's session: site placement, display
// fields of view and the overlay the membership server constructs. The
// workload seed drives the inputs that flow through that session — frame
// payloads, the view-change trace and the fabric's draws — so two seeds
// measure the same session under different inputs, and run-to-run spread
// reflects the program rather than a different topology per seed.
const layoutSeed = 1

// pollInterval is how often the load generator drains display queues
// while it waits for the next due tick. Deliveries carry their own
// receive time, so the interval bounds queue depth, not the measurement.
const pollInterval = time.Millisecond

// warmupTimeout bounds the wait for every site's first frames, and
// issuerTimeout the wait for the last view change after its window.
// The last quietTail of every window is free of view changes, so each
// gain has time to show its first frame (disruption p99 is near 300 ms),
// and drainTime is how long displays are drained after the last tick.
const (
	warmupTimeout = 120 * time.Second
	issuerTimeout = 30 * time.Second
	quietTail     = time.Second
	drainTime     = 750 * time.Millisecond
)

// livePass is what one pass over a live workload measured.
type livePass struct {
	setupS []float64
	heapMB []float64

	frameLat []float64
	window   windowTotals
	cpuBusy  time.Duration
	cpuWall  time.Duration
	events   int

	checks

	// Per-layer figures: samples pooled and counts summed over the
	// pass's boots.
	buildMs, serveMs []float64
	startMs          []float64
	phases           membership.PhaseStats
	epochs, applied  uint64
	resubMs          []float64
	publishUs        []float64
	publishBusy      time.Duration
	stale, dup, drop int
	retries          int64
	publishLag       []float64
	resubLag         []float64
	allocBytes       uint64
	mallocs          uint64
	gcCycles         uint32
	gcPause          time.Duration
	fabric           *countingFabric
}

// cluster is one booted session: a membership server and one RP per
// site on a virtual fabric.
type cluster struct {
	s      *session.Session
	srv    *membership.Server
	nodes  []*rp.Node
	retry  *transport.RetryStats
	cancel context.CancelFunc
	iv     time.Duration
	ticks  uint64 // ticks published so far; the next tick's Seq
	led    *ledger
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// close tears the cluster down and waits for every goroutine it started.
// Close returns the node's Err, which collectNodeStats has checked on
// every path that reports a result.
func (c *cluster) close() {
	c.cancel()
	for _, n := range c.nodes {
		_ = n.Close()
	}
	c.srv.Wait()
}

// boot assembles the session, starts the membership server and every
// RP, and publishes ticks until every site has displayed one frame of
// every stream it admits. The returned duration is the set-up time.
func boot(ctx context.Context, sp liveSpec, seed int64, tr *tracer, cf *countingFabric, p *livePass) (*cluster, time.Duration, error) {
	root := tr.start("bench.boot", 0, -1)
	defer root.end()
	begin := time.Now()

	sb := tr.start("session.BuildCluster", root.id, -1)
	s, err := session.BuildCluster(session.ClusterSpec{Spec: session.Spec{
		N: sp.sites, CamerasPerSite: sp.cameras, DisplaysPerSite: sp.displays, Seed: layoutSeed,
	}})
	sb.end()
	if err != nil {
		return nil, 0, err
	}
	buildMs := ms(time.Since(begin))

	vnet := transport.NewVirtualNetwork(transport.VirtualConfig{
		Seed: seed, Links: transport.SiteLinks(s.Sites.Cost, transport.LinkProfile{}),
	})
	var fabric transport.Fabric = vnet
	if cf != nil {
		fabric = cf.wrap(vnet)
	}
	srv, err := membership.New(membership.Config{
		N: sp.sites, Cost: s.Sites.Cost, Bcost: s.Problem.Bcost,
		Algorithm: overlay.RJ{}, Seed: layoutSeed,
		Network: fabric.Host(transport.ShardServerHost(0)),
	})
	if err != nil {
		return nil, 0, err
	}
	directory := [][]string{{srv.Addr()}}
	srv.SetDirectory(directory)

	cctx, cancel := context.WithCancel(ctx)
	c := &cluster{
		s: s, srv: srv, retry: &transport.RetryStats{}, cancel: cancel,
		iv: time.Duration(sp.profile.FrameIntervalMs() * float64(time.Millisecond)),
	}
	type served struct {
		err error
		d   time.Duration
	}
	serveDone := make(chan served, 1)
	go func() {
		span := tr.start("membership.Serve", root.id, -1)
		t := time.Now()
		err := srv.Serve(cctx)
		d := time.Since(t)
		span.end()
		serveDone <- served{err: err, d: d}
	}()

	for i := 0; i < sp.sites; i++ {
		node, err := rp.New(rp.Config{
			Site: i, Directory: directory,
			In: s.Workload.Sites[i].In, Out: s.Workload.Sites[i].Out,
			Cameras: s.Workload.Sites[i].NumStreams,
			Profile: sp.profile, Seed: seed*1000 + int64(i),
			Subscriptions:  s.Workload.Subs[i],
			DeliveryBuffer: 8192,
			Network:        fabric.Host(transport.SiteHost(i)),
			RetryStats:     c.retry,
		})
		if err != nil {
			cancel()
			<-serveDone
			srv.Wait()
			return nil, 0, fmt.Errorf("site %d: %w", i, err)
		}
		c.nodes = append(c.nodes, node)
	}
	type started struct {
		err error
		d   time.Duration
	}
	startDone := make(chan started, len(c.nodes))
	for _, node := range c.nodes {
		node := node
		go func() {
			st := tr.start("rp.Start", root.id, -1)
			t := time.Now()
			err := node.Start(cctx)
			st.end()
			startDone <- started{err: err, d: time.Since(t)}
		}()
	}
	// Every Start result is collected before acting on a failure, so the
	// teardown never races a handshake still in flight.
	var startErr error
	startMs := make([]float64, 0, len(c.nodes))
	for range c.nodes {
		r := <-startDone
		startMs = append(startMs, ms(r.d))
		if r.err != nil && startErr == nil {
			startErr = r.err
			cancel()
		}
	}
	sv := <-serveDone
	if startErr == nil && sv.err != nil {
		startErr = fmt.Errorf("membership serve: %w", sv.err)
	}
	if startErr != nil {
		c.close()
		return nil, 0, fmt.Errorf("start: %w", startErr)
	}

	accepted := make([][]stream.ID, len(c.nodes))
	for i, n := range c.nodes {
		accepted[i] = n.Routes().Accepted
	}
	c.led = newLedger(accepted)
	wu := tr.start("bench.warmup", root.id, -1)
	deadline := time.Now().Add(warmupTimeout)
	for !c.led.allCovered() {
		if time.Now().After(deadline) {
			wu.end()
			c.close()
			return nil, 0, errors.New("warm-up: some sites never displayed their first frames")
		}
		next := time.Now().Add(c.iv)
		if err := c.tick(nil, root.id, nil); err != nil {
			wu.end()
			c.close()
			return nil, 0, err
		}
		if err := c.drainUntil(ctx, next, nil); err != nil {
			wu.end()
			c.close()
			return nil, 0, err
		}
	}
	wu.end()
	setup := time.Since(begin)

	p.buildMs = append(p.buildMs, buildMs)
	p.serveMs = append(p.serveMs, ms(sv.d))
	p.startMs = append(p.startMs, startMs...)
	return c, setup, nil
}

// tick publishes one frame from every camera of every site. When p is
// non-nil each PublishTick call is timed into it and traced.
func (c *cluster) tick(tr *tracer, parent int64, p *livePass) error {
	for _, node := range c.nodes {
		if p == nil {
			if err := node.PublishTick(); err != nil {
				return fmt.Errorf("site %d publish: %w", node.Site(), err)
			}
			continue
		}
		sp := tr.start("rp.PublishTick", parent, -1)
		t := time.Now()
		err := node.PublishTick()
		d := time.Since(t)
		sp.end()
		if err != nil {
			return fmt.Errorf("site %d publish: %w", node.Site(), err)
		}
		p.publishUs = append(p.publishUs, float64(d)/float64(time.Microsecond))
		p.publishBusy += d
	}
	c.ticks++
	return nil
}

// drainAll hands every queued display delivery to the ledger.
func (c *cluster) drainAll() {
	for i, node := range c.nodes {
		ch := node.Deliveries()
		for {
			select {
			case d := <-ch:
				c.led.deliver(i, d)
				continue
			default:
			}
			break
		}
	}
}

// drainUntil drains display queues until the deadline, or until done
// yields (when done is non-nil), whichever comes first.
func (c *cluster) drainUntil(ctx context.Context, deadline time.Time, done <-chan struct{}) error {
	for {
		c.drainAll()
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil
		}
		if wait > pollInterval {
			wait = pollInterval
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-done:
			return nil
		case <-time.After(wait):
		}
	}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func heapMBPerSite(sites int) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6 / float64(sites)
}

// runLivePass boots the workload's cluster sp.boots times and measures
// one streaming window on each, the windows sharing the seconds. Traced
// passes count the wire through one counting fabric.
func runLivePass(ctx context.Context, sp liveSpec, seed int64, seconds float64, tr *tracer) (*livePass, error) {
	p := &livePass{}
	if tr != nil {
		p.fabric = &countingFabric{}
	}
	traces := rand.New(rand.NewSource(seed))
	for b := 0; b < sp.boots; b++ {
		c, setup, err := boot(ctx, sp, seed, tr, p.fabric, p)
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", b+1, err)
		}
		p.setupS = append(p.setupS, setup.Seconds())
		err = c.streamWindow(ctx, sp, traces, seconds/float64(sp.boots), tr, p)
		if err == nil {
			p.collectNodeStats(c)
			p.merge(c.led.failedChecks())
		}
		c.close()
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", b+1, err)
		}
	}
	return p, nil
}

// collectNodeStats adds the per-layer counters of a cluster about to be
// torn down and checks every node's health.
func (p *livePass) collectNodeStats(c *cluster) {
	for _, n := range c.nodes {
		if err := n.Err(); err != nil {
			p.fail("site %d failed: %v", n.Site(), err)
		}
		for _, st := range n.Stats() {
			p.stale += st.Stale
			p.dup += st.Duplicates
			p.drop += st.Dropped
		}
	}
	p.retries += c.retry.Total()
	ph := c.srv.PhaseStats()
	p.phases.ConstructMs += ph.ConstructMs
	p.phases.BatchApplyMs += ph.BatchApplyMs
	p.phases.RouteRebuildMs += ph.RouteRebuildMs
	p.epochs += c.srv.Epoch()
	p.applied += c.srv.AppliedResubs()
}

// streamWindow runs the open-loop load: one goroutine publishes a tick
// every frame interval from t0 and drains the display queues, another
// issues the view-change trace at its due times, one change in flight.
// Frames are timed from their due capture time t0 + k·interval, view
// changes from their due time, so a late generator shows up as latency
// and as lag.
func (c *cluster) streamWindow(ctx context.Context, sp liveSpec, traces *rand.Rand, seconds float64, tr *tracer, p *livePass) error {
	win := tr.start("bench.stream", 0, -1)
	defer win.end()
	windowMs := seconds * 1000
	profile := workload.ChurnProfile{RatePerSec: sp.viewChangesPerSiteSec * float64(sp.sites), ViewChangeMix: 1}
	trace, err := c.s.ChurnTrace(profile, windowMs-float64(quietTail/time.Millisecond), traces)
	if err != nil {
		return err
	}
	pred, err := c.s.SimPrediction(session.LiveConfig{Profile: sp.profile, DurationMs: windowMs, Seed: layoutSeed}, trace)
	if err != nil {
		return err
	}
	if len(pred.Events) != len(trace) {
		return fmt.Errorf("simulator answered %d of %d events", len(pred.Events), len(trace))
	}
	base := p.events // event indices run on across the pass's windows
	p.events += len(trace)

	seq0 := c.ticks
	if got := c.nodes[0].NextSeq(); got != seq0 {
		return fmt.Errorf("site 0 is at seq %d after %d ticks", got, seq0)
	}
	n := int(windowMs / sp.profile.FrameIntervalMs())
	t0 := time.Now().Add(c.iv)
	dueAt := make([]time.Time, n)
	for k := range dueAt {
		dueAt[k] = t0.Add(time.Duration(k) * c.iv)
	}
	c.led.startWindow(seq0, dueAt)

	issued := make(chan error, 1)
	issuerDone := make(chan struct{})
	ictx, stopIssuer := context.WithCancel(ctx)
	defer stopIssuer()
	if len(trace) > 0 {
		go func() {
			defer close(issuerDone)
			issued <- c.issue(ictx, trace, pred, t0, base, tr, win.id, p)
		}()
	} else {
		close(issuerDone)
		issued <- nil
	}

	if err := c.drainUntil(ctx, t0, nil); err != nil {
		return err
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuTime()
	if err != nil {
		return err
	}
	var pubTrace *livePass
	if tr != nil {
		pubTrace = p
	}
	var loadErr error
	for k, due := range dueAt {
		if err := c.drainUntil(ctx, due, nil); err != nil {
			loadErr = err
			break
		}
		p.publishLag = append(p.publishLag, ms(time.Since(due)))
		if err := c.tick(tr, win.id, pubTrace); err != nil {
			loadErr = fmt.Errorf("tick %d: %w", k, err)
			break
		}
	}
	end := t0.Add(time.Duration(n) * c.iv)
	if loadErr == nil {
		loadErr = c.drainUntil(ctx, end, nil)
	}
	wall := time.Since(t0)
	cpu1, err := cpuTime()
	if err != nil {
		return err
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	p.cpuBusy += cpu1 - cpu0
	p.cpuWall += wall
	p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	p.mallocs += m1.Mallocs - m0.Mallocs
	p.gcCycles += m1.NumGC - m0.NumGC
	p.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	// Let the issuer finish, then let in-flight frames land.
	if loadErr == nil {
		loadErr = c.drainUntil(ctx, time.Now().Add(issuerTimeout), issuerDone)
	}
	select {
	case <-issuerDone:
	default:
		if loadErr == nil {
			loadErr = errors.New("view changes still in flight after the window")
		}
	}
	if loadErr != nil {
		stopIssuer()
		<-issuerDone
		return loadErr
	}
	if err := <-issued; err != nil {
		return err
	}
	if err := c.drainUntil(ctx, time.Now().Add(drainTime), nil); err != nil {
		return err
	}

	p.heapMB = append(p.heapMB, heapMBPerSite(sp.sites))
	for i, node := range c.nodes {
		c.led.reconcile(i, node.Routes().Accepted)
	}
	p.window.add(c.led.settle(seq0 + uint64(n)))
	p.frameLat = append(p.frameLat, c.led.latency...)
	// The issuer has finished, so the gains can be read without the lock.
	for _, g := range c.led.gains {
		if g.a.frames > 0 {
			tr.recordAt("bench.first_frame", g.span, g.event, g.due, g.a.firstAt)
		}
	}
	return nil
}

// issue applies the view-change trace over the wire in trace order, one
// change in flight, each at its due time or as soon as the previous one
// returned, and checks every answer against the simulator's.
func (c *cluster) issue(ctx context.Context, trace []sim.Event, pred *sim.EventResult, t0 time.Time, base int, tr *tracer, parent int64, p *livePass) error {
	for i, e := range trace {
		event := base + i
		due := t0.Add(time.Duration(e.AtMs * float64(time.Millisecond)))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		}
		sentAt := time.Now()
		p.resubLag = append(p.resubLag, ms(sentAt.Sub(due)))
		c.led.beginChange(event, e, sentAt)
		sp := tr.start("rp.Resubscribe", parent, event)
		res, err := c.nodes[e.Node].Resubscribe(ctx, e.Gained, e.Lost)
		returned := time.Now()
		sp.end()
		if err != nil {
			return fmt.Errorf("view change %d (site %d): %w", event, e.Node, err)
		}
		p.resubMs = append(p.resubMs, ms(returned.Sub(sentAt)))
		c.led.endChange(event, e, res, due, returned, sp.id)
		want := pred.Events[i]
		if len(res.Accepted) != want.GainedAccepted || len(res.Rejected) != want.GainedRejected {
			c.led.fail("view change %d (site %d): accepted/rejected %d/%d, simulator %d/%d",
				event, e.Node, len(res.Accepted), len(res.Rejected), want.GainedAccepted, want.GainedRejected)
		}
	}
	return nil
}
