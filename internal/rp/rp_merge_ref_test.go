package rp

// This file holds the reference model for the routing merge: the merge
// code of the previous RP design, kept verbatim apart from the receiver
// and type names (and minus the acknowledgement branch for the deleted
// RoutesUpdate.ReplyTo field). It held the node's routing state as one
// eagerly rebuilt union table with a per-shard epoch slice, merged in
// three near-duplicate paths: installShardRoutes at boot, applyUpdate for
// deltas and applySync for failover resyncs. rp_merge_test.go drives it
// and the current per-shard install step with the same message
// sequences and requires identical observable state after every step.

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

// refNode carries the Node fields the reference merge code touches.
type refNode struct {
	cfg       Config
	tbl       atomic.Pointer[refTable]
	ready     chan struct{}
	readyOnce sync.Once
	shards    int

	mu           sync.Mutex
	dir          [][]string
	peers        map[int]*peerLink
	peerConn     map[int]*peerConnState
	pendingGain  map[stream.ID]gainMark
	inflight     map[uint64]*inflightReq
	staleUpdates int
}

func (n *refNode) table() *refTable { return n.tbl.Load() }

// refTable is an immutable snapshot of the node's routing state; the
// node swaps the whole snapshot atomically on every update, so a frame is
// always routed under exactly one epoch. The snapshot is the union of
// every membership shard's directive; epochs holds the per-shard table
// versions and epoch their maximum.
type refTable struct {
	epoch    uint64
	epochs   []uint64
	routes   *transport.Routes
	forward  map[stream.ID][]int
	accepted map[stream.ID]bool
}

func newRefTable(r *transport.Routes) *refTable {
	epochs := make([]uint64, r.Shard+1)
	epochs[r.Shard] = r.Epoch
	t := &refTable{
		epoch:    r.Epoch,
		epochs:   epochs,
		routes:   r,
		forward:  make(map[stream.ID][]int, len(r.Forward)),
		accepted: make(map[stream.ID]bool, len(r.Accepted)),
	}
	for _, route := range r.Forward {
		if len(route.Children) > 0 {
			t.forward[route.Stream] = route.Children
		}
	}
	for _, id := range r.Accepted {
		t.accepted[id] = true
	}
	return t
}

// shardEpoch returns the table version held for one shard (0 if the
// shard never delivered a table).
func (t *refTable) shardEpoch(k int) uint64 {
	if k >= 0 && k < len(t.epochs) {
		return t.epochs[k]
	}
	return 0
}

// installShardRoutes merges the initial per-shard tables into one
// snapshot and opens the ready gate. The shard directives are disjoint
// by stream ownership, so the merge is a plain union; the replicated
// session directory carried in any table replaces the configured one.
func (n *refNode) installShardRoutes(routes []*transport.Routes) {
	epochs := make([]uint64, len(routes))
	merged := &transport.Routes{Site: n.cfg.Site}
	for k, r := range routes {
		if r.Epoch == 0 {
			r.Epoch = 1
		}
		epochs[k] = r.Epoch
		if r.Epoch > merged.Epoch {
			merged.Epoch = r.Epoch
		}
		if merged.Peers == nil {
			// The peer mesh is registration-time state identical across
			// shards; share the first shard's maps.
			merged.Peers = r.Peers
			merged.DelayMs = r.DelayMs
		}
		merged.Forward = append(merged.Forward, r.Forward...)
		merged.Accepted = append(merged.Accepted, r.Accepted...)
		merged.Rejected = append(merged.Rejected, r.Rejected...)
		if len(r.Directory) == len(routes) {
			n.mu.Lock()
			n.dir = r.Directory
			n.mu.Unlock()
		}
	}
	t := newRefTable(merged)
	t.epochs = epochs
	n.tbl.Store(t)
	n.readyOnce.Do(func() { close(n.ready) })
}

// resolveAcks settles resubscribe waiters from an update's folded-in
// acknowledgements. Resolution is independent of the epoch gate: even
// an update whose table content is stale still answers its requesters
// (a re-acknowledged duplicate carries the current epoch unchanged).
func (n *refNode) resolveAcks(u *transport.RoutesUpdate) {
	acks := u.Acks
	for _, a := range acks {
		n.mu.Lock()
		req, ok := n.inflight[a.ID]
		if ok {
			delete(n.inflight, a.ID)
		}
		n.mu.Unlock()
		if !ok {
			continue
		}
		res := &ResubscribeResult{Epoch: u.Epoch, Accepted: a.Accepted, Rejected: a.Rejected}
		if len(a.Accepted) > 0 {
			res.Epochs = make(map[stream.ID]uint64, len(a.Accepted))
			for _, id := range a.Accepted {
				res.Epochs[id] = u.Epoch
			}
		}
		req.ch <- res
	}
}

// applyUpdate merges an epoch-versioned delta into a fresh routing
// snapshot and swaps it in. Updates whose epoch is not newer than the
// running table's slice for the sending shard are dropped
// deterministically (a reordered or replayed delta must not roll the
// table back).
func (n *refNode) applyUpdate(u *transport.RoutesUpdate) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.table()
	if cur == nil || u.Epoch <= cur.shardEpoch(u.Shard) {
		n.staleUpdates++
		return
	}

	// The peer mesh is registration-time state the server shares across
	// rebuilds, so updates normally carry no Peers/DelayMs: share the
	// current maps and copy only when a delta actually touches them —
	// at cluster scale this is two O(N) map copies saved per update.
	r := &transport.Routes{
		Site:    cur.routes.Site,
		Epoch:   u.Epoch,
		Peers:   cur.routes.Peers,
		DelayMs: cur.routes.DelayMs,
	}
	if len(u.Peers) > 0 {
		r.Peers = make(map[int]string, len(cur.routes.Peers))
		for k, v := range cur.routes.Peers {
			r.Peers[k] = v
		}
		for k, v := range u.Peers {
			// A changed address means the peer restarted (crash/rejoin):
			// drop any stale link and revive a dead-marked peer so the
			// next frame redials the new address.
			if old, ok := r.Peers[k]; ok && old != v {
				if link := n.peers[k]; link != nil {
					link.conn.Close()
				}
				if st := n.peerConn[k]; st != nil {
					st.dead = false
				}
			}
			r.Peers[k] = v
		}
	}
	if len(u.DelayMs) > 0 {
		r.DelayMs = make(map[int]float64, len(cur.routes.DelayMs))
		for k, v := range cur.routes.DelayMs {
			r.DelayMs[k] = v
		}
		for k, v := range u.DelayMs {
			r.DelayMs[k] = v
		}
	}

	// Merge into fresh lookup maps, then build the snapshot directly from
	// them — the Routes slices are derived once for the stored copy.
	forward := make(map[stream.ID][]int, len(cur.forward))
	for id, ch := range cur.forward {
		forward[id] = ch
	}
	for _, route := range u.SetForward {
		if len(route.Children) == 0 {
			delete(forward, route.Stream)
		} else {
			forward[route.Stream] = route.Children
		}
	}
	for id, ch := range forward {
		r.Forward = append(r.Forward, transport.Route{Stream: id, Children: ch})
	}

	accepted := make(map[stream.ID]bool, len(cur.accepted))
	for id := range cur.accepted {
		accepted[id] = true
	}
	for _, id := range u.AddAccepted {
		accepted[id] = true
	}
	for _, id := range u.DelAccepted {
		delete(accepted, id)
	}
	for id := range accepted {
		r.Accepted = append(r.Accepted, id)
	}

	rejected := make(map[stream.ID]bool, len(cur.routes.Rejected))
	for _, id := range cur.routes.Rejected {
		rejected[id] = true
	}
	for _, id := range u.AddRejected {
		rejected[id] = true
	}
	for _, id := range u.DelRejected {
		delete(rejected, id)
	}
	for id := range rejected {
		r.Rejected = append(r.Rejected, id)
	}

	epochs := make([]uint64, len(cur.epochs))
	copy(epochs, cur.epochs)
	for len(epochs) <= u.Shard {
		epochs = append(epochs, 0)
	}
	epochs[u.Shard] = u.Epoch
	maxEpoch := cur.epoch
	if u.Epoch > maxEpoch {
		maxEpoch = u.Epoch
	}
	n.tbl.Store(&refTable{epoch: maxEpoch, epochs: epochs, routes: r, forward: forward, accepted: accepted})

	// Track newly gained streams until their first delivered frame; a
	// stream withdrawn before that settles as never-delivered.
	now := time.Now()
	for _, id := range u.AddAccepted {
		if !cur.accepted[id] {
			n.pendingGain[id] = gainMark{epoch: u.Epoch, at: now}
		}
	}
	for _, id := range u.DelAccepted {
		delete(n.pendingGain, id)
	}
}

// applySync replaces one shard's whole slice of the routing snapshot
// with a freshly delivered full table — the resynchronization a
// successor (or the same server, after this site re-registered) sends.
// Resubscriptions left in flight toward the shard are settled from the
// synced admission state: the crash may have eaten their individual
// acknowledgements, but the re-registration carried their effect.
func (n *refNode) applySync(r *transport.Routes) {
	if r.Epoch == 0 {
		r.Epoch = 1
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.table()
	if cur == nil {
		return
	}
	k := r.Shard
	if r.Epoch <= cur.shardEpoch(k) {
		n.staleUpdates++
		return
	}
	shards := n.shards
	if shards <= k {
		shards = k + 1
	}
	if len(r.Directory) > 0 {
		n.dir = r.Directory
	}

	owned := func(id stream.ID) bool { return transport.TenantStreamShard(n.cfg.Tenant, id, shards) == k }

	merged := &transport.Routes{
		Site:    cur.routes.Site,
		Epoch:   cur.epoch,
		Peers:   cur.routes.Peers,
		DelayMs: cur.routes.DelayMs,
	}
	forward := make(map[stream.ID][]int, len(cur.forward))
	for id, ch := range cur.forward {
		if !owned(id) {
			forward[id] = ch
		}
	}
	for _, route := range r.Forward {
		if len(route.Children) > 0 {
			forward[route.Stream] = route.Children
		}
	}
	for id, ch := range forward {
		merged.Forward = append(merged.Forward, transport.Route{Stream: id, Children: ch})
	}

	accepted := make(map[stream.ID]bool, len(cur.accepted))
	for id := range cur.accepted {
		if !owned(id) {
			accepted[id] = true
		}
	}
	accSet := make(map[stream.ID]bool, len(r.Accepted))
	for _, id := range r.Accepted {
		accSet[id] = true
		accepted[id] = true
	}
	for id := range accepted {
		merged.Accepted = append(merged.Accepted, id)
	}

	rejSet := make(map[stream.ID]bool, len(r.Rejected))
	for _, id := range r.Rejected {
		rejSet[id] = true
	}
	for _, id := range cur.routes.Rejected {
		if !owned(id) {
			merged.Rejected = append(merged.Rejected, id)
		}
	}
	merged.Rejected = append(merged.Rejected, r.Rejected...)

	epochs := make([]uint64, len(cur.epochs))
	copy(epochs, cur.epochs)
	for len(epochs) <= k {
		epochs = append(epochs, 0)
	}
	epochs[k] = r.Epoch
	if r.Epoch > merged.Epoch {
		merged.Epoch = r.Epoch
	}
	n.tbl.Store(&refTable{epoch: merged.Epoch, epochs: epochs, routes: merged, forward: forward, accepted: accepted})

	// Gains and losses relative to the pre-sync slice drive the same
	// disruption tracking a delta would: a stream the successor granted
	// that the old table lacked starts a first-frame measurement.
	now := time.Now()
	for id := range accSet {
		if !cur.accepted[id] {
			n.pendingGain[id] = gainMark{epoch: r.Epoch, at: now}
		}
	}
	for id := range cur.accepted {
		if owned(id) && !accSet[id] {
			delete(n.pendingGain, id)
		}
	}

	// Settle in-flight resubscriptions toward this shard from the synced
	// admission state. A gain in neither set was lost in the failover
	// window (sent after the successor's registration snapshot): it is
	// reported as neither accepted nor rejected — a bounded loss.
	for id, req := range n.inflight {
		if req.shard != k {
			continue
		}
		res := &ResubscribeResult{Epoch: r.Epoch}
		for _, g := range req.gained {
			switch {
			case accSet[g]:
				if res.Epochs == nil {
					res.Epochs = make(map[stream.ID]uint64)
				}
				res.Accepted = append(res.Accepted, g)
				res.Epochs[g] = r.Epoch
			case rejSet[g]:
				res.Rejected = append(res.Rejected, g)
			}
		}
		delete(n.inflight, id)
		req.ch <- res
	}
}
