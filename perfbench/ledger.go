package main

import (
	"math"
	"sync"
	"time"

	"github.com/tele3d/tele3d/internal/rp"
	"github.com/tele3d/tele3d/internal/sim"
	"github.com/tele3d/tele3d/internal/stream"
)

// pairKey is one (site, stream) display pair.
type pairKey struct {
	site int
	id   stream.ID
}

// admission is one interval during which a site admits a stream, with
// the window frames displayed in it.
type admission struct {
	// from is when the admission began (zero for the boot-time set), to
	// when it ended (zero while it lasts).
	from, to time.Time
	// event is the index of the view change that granted it, -1 for the
	// boot-time set.
	event    int
	frames   int64
	firstSeq uint64
	lastSeq  uint64
	firstAt  time.Time
}

// change is a view change in flight: its gains are admitted
// provisionally from the moment the request was sent, since the site
// may display them before Resubscribe returns.
type change struct {
	sentAt time.Time
	gains  map[stream.ID]*admission
}

// gain is an accepted gained stream, owed a first frame.
type gain struct {
	event int
	due   time.Time
	a     *admission
	// span is the view change's rp.Resubscribe span, the first frame's
	// cause in the trace.
	span int64
}

// ledger tracks, for every site, which streams it admits and when, and
// checks every displayed frame against that: a frame must belong to a
// stream the site admits at the moment it is displayed, and each
// (site, stream) pair must show strictly increasing sequence numbers.
// It also accounts the frames owed and displayed in the measured window.
type ledger struct {
	mu      sync.Mutex
	seq0    uint64 // first tick of the measured window
	open    map[pairKey]*admission
	closed  map[pairKey][]*admission
	pending map[int]*change
	lastSeq map[pairKey]uint64
	gains   []gain

	// covered counts the boot-time pairs that have displayed a frame.
	covered int

	// dueAt[k] is the due capture time of window tick seq0+k.
	dueAt   []time.Time
	latency []float64

	checks checks
}

func newLedger(accepted [][]stream.ID) *ledger {
	l := &ledger{
		seq0:    math.MaxUint64,
		open:    make(map[pairKey]*admission),
		closed:  make(map[pairKey][]*admission),
		pending: make(map[int]*change),
		lastSeq: make(map[pairKey]uint64),
	}
	for site, ids := range accepted {
		for _, id := range ids {
			l.open[pairKey{site, id}] = &admission{event: -1}
		}
	}
	return l
}

// fail records a failed check.
func (l *ledger) fail(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.checks.fail(format, args...)
}

// allCovered reports whether every boot-time pair has displayed a frame.
func (l *ledger) allCovered() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.covered == len(l.open)
}

// startWindow opens the measured window at tick seq0, whose ticks are
// due at the given times.
func (l *ledger) startWindow(seq0 uint64, dueAt []time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq0 = seq0
	l.dueAt = dueAt
}

// find returns the admission covering a display at time at, or nil.
func (l *ledger) find(k pairKey, at time.Time) *admission {
	if a := l.open[k]; a != nil && !at.Before(a.from) {
		return a
	}
	if c := l.pending[k.site]; c != nil && !at.Before(c.sentAt) {
		if a := c.gains[k.id]; a != nil {
			return a
		}
	}
	for _, a := range l.closed[k] {
		if !at.Before(a.from) && !at.After(a.to) {
			return a
		}
	}
	return nil
}

// deliver checks and accounts one displayed frame.
func (l *ledger) deliver(site int, d rp.Delivery) {
	k := pairKey{site, d.Frame.Stream}
	seq := d.Frame.Seq
	l.mu.Lock()
	defer l.mu.Unlock()
	last, seen := l.lastSeq[k]
	if seen && seq <= last {
		l.checks.fail("site %d stream %v: seq %d displayed after %d", site, k.id, seq, last)
		return
	}
	l.lastSeq[k] = seq
	a := l.find(k, d.ReceivedAt)
	if a == nil {
		l.checks.fail("site %d displayed stream %v (seq %d), which it does not admit", site, k.id, seq)
		return
	}
	if !seen && a.event < 0 {
		l.covered++
	}
	if seq < l.seq0 {
		return // a boot-time frame, not owed by the window
	}
	if a.frames == 0 {
		a.firstSeq, a.firstAt = seq, d.ReceivedAt
	}
	a.frames++
	a.lastSeq = seq
	if i := seq - l.seq0; i < uint64(len(l.dueAt)) {
		l.latency = append(l.latency, float64(d.ReceivedAt.Sub(l.dueAt[i]))/float64(time.Millisecond))
	} else {
		l.checks.fail("site %d stream %v: seq %d was never published", site, k.id, seq)
	}
}

// beginChange registers a view change about to be sent.
func (l *ledger) beginChange(event int, e sim.Event, sentAt time.Time) {
	c := &change{sentAt: sentAt, gains: make(map[stream.ID]*admission, len(e.Gained))}
	for _, id := range e.Gained {
		c.gains[id] = &admission{from: sentAt, event: event}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending[e.Node] = c
}

// endChange applies the control plane's answer to a view change: the
// accepted gains become admissions owed a first frame, and lost streams
// stop being admitted at the moment the answer returned (the site's
// table changed no later than that).
func (l *ledger) endChange(event int, e sim.Event, res *rp.ResubscribeResult, due, returned time.Time, span int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.pending[e.Node]
	delete(l.pending, e.Node)
	for _, id := range res.Accepted {
		k := pairKey{e.Node, id}
		a := c.gains[id]
		if a == nil {
			l.checks.fail("event %d: site %d accepted %v, which it did not ask for", event, e.Node, id)
			continue
		}
		if l.open[k] != nil {
			l.checks.fail("event %d: site %d gained %v, which it already admits", event, e.Node, id)
		}
		l.open[k] = a
		l.gains = append(l.gains, gain{event: event, due: due, a: a, span: span})
	}
	for _, id := range res.Rejected {
		if a := c.gains[id]; a != nil && a.frames > 0 {
			l.checks.fail("event %d: site %d displayed %v, which was rejected", event, e.Node, id)
		}
	}
	for _, id := range e.Lost {
		k := pairKey{e.Node, id}
		if a := l.open[k]; a != nil {
			a.to = returned
			l.closed[k] = append(l.closed[k], a)
			delete(l.open, k)
		}
	}
}

// reconcile checks that the ledger's admitted set of each site equals
// the site's installed routing table.
func (l *ledger) reconcile(site int, accepted []stream.ID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	want := 0
	for k := range l.open {
		if k.site == site {
			want++
		}
	}
	for _, id := range accepted {
		if l.open[pairKey{site, id}] == nil {
			l.checks.fail("site %d admits %v, which no view change granted", site, id)
		}
	}
	if want != len(accepted) {
		l.checks.fail("site %d admits %d streams, expected %d", site, len(accepted), want)
	}
}

// windowTotals is what the ledger settled for a measured window.
type windowTotals struct {
	// owed and displayed count window frames.
	owed, displayed int64
	// admissions counts the pairs owed frames in the window: boot-time
	// pairs and accepted gains. starved counts those that displayed no
	// frame at all: accepted gains that never arrived (undelivered) and
	// boot-time pairs that went dark for the whole window. A gain its
	// site gave up again before the first frame could arrive is owed
	// nothing and counted as withdrawn.
	admissions, starved, undelivered, withdrawn int
	// disruption holds, per delivered gain, the time from the view
	// change's due time to the gained stream's first displayed frame.
	disruption []float64
}

// add accumulates another window's totals.
func (w *windowTotals) add(o windowTotals) {
	w.owed += o.owed
	w.displayed += o.displayed
	w.admissions += o.admissions
	w.starved += o.starved
	w.undelivered += o.undelivered
	w.withdrawn += o.withdrawn
	w.disruption = append(w.disruption, o.disruption...)
}

// settle totals the window once the last tick (seqEnd-1) has been
// drained. A boot-time pair is owed every window tick while it is
// admitted; a gained pair is owed from its first displayed frame, since
// the wait before that is its disruption. An admission that ended is
// owed through its last displayed frame, so frames a reroute loses in
// flight count as owed but not displayed.
func (l *ledger) settle(seqEnd uint64) windowTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	var w windowTotals
	account := func(a *admission, open bool) {
		if a.event < 0 && (open || a.frames > 0) {
			w.admissions++
			if a.frames == 0 {
				w.starved++
			}
		}
		start, end := l.seq0, seqEnd-1
		if a.event >= 0 {
			if a.frames == 0 {
				return
			}
			start = a.firstSeq
		}
		if !open {
			if a.frames == 0 {
				return
			}
			end = a.lastSeq
		}
		if end >= start {
			w.owed += int64(end - start + 1)
		}
		w.displayed += a.frames
	}
	for _, a := range l.open {
		account(a, true)
	}
	for _, as := range l.closed {
		for _, a := range as {
			account(a, false)
		}
	}
	for _, g := range l.gains {
		if g.a.frames == 0 && !g.a.to.IsZero() {
			w.withdrawn++
			continue
		}
		w.admissions++
		if g.a.frames == 0 {
			w.starved++
			w.undelivered++
			continue
		}
		w.disruption = append(w.disruption, float64(g.a.firstAt.Sub(g.due))/float64(time.Millisecond))
	}
	return w
}

// failedChecks returns a copy of the ledger's failed checks.
func (l *ledger) failedChecks() checks {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.checks
	c.messages = append([]string(nil), c.messages...)
	return c
}
