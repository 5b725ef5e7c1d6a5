package rp

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

// mergeMix weights the message kinds a merge sequence draws from.
type mergeMix struct {
	delta, sync, resub int // relative weights of the next step's kind
	stale              int // % of directives sent with a stale or replayed epoch
	mesh               int // % of deltas carrying a peer-mesh change
	clear              int // % of forwarding entries in a delta that clear a duty
}

// mergeHarness feeds one message sequence to the reference merge model
// (rp_merge_ref_test.go) and to a Node, and compares every observable
// piece of routing state after each step.
type mergeHarness struct {
	t      testing.TB
	rng    *rand.Rand
	mix    mergeMix
	shards int
	owned  [][]stream.ID // the stream universe, split by owning shard
	ref    *refNode
	node   *Node
	reqs   map[uint64]*reqPair
	nextID uint64
}

// reqPair is one in-flight resubscribe registered with both sides.
type reqPair struct {
	shard     int
	gained    []stream.ID
	ref, node chan *ResubscribeResult
}

const mergeSites = 8

func newMergeHarness(t testing.TB, seed int64, shards int, mix mergeMix) *mergeHarness {
	tenant := int(uint64(seed) % 3)
	node, err := New(Config{Site: 1, Cameras: 1, Profile: testProfile(), Tenant: tenant})
	if err != nil {
		t.Fatal(err)
	}
	h := &mergeHarness{
		t: t, rng: rand.New(rand.NewSource(seed)), mix: mix, shards: shards,
		owned: make([][]stream.ID, shards), node: node, reqs: make(map[uint64]*reqPair),
	}
	for s := 0; s < mergeSites; s++ {
		for i := 0; i < 3; i++ {
			id := stream.ID{Site: s, Index: i}
			k := transport.TenantStreamShard(tenant, id, shards)
			h.owned[k] = append(h.owned[k], id)
		}
	}
	dir := make([][]string, shards)
	for k := range dir {
		dir[k] = []string{fmt.Sprintf("boot-%d", k)}
	}
	h.ref = &refNode{
		cfg: node.cfg, ready: make(chan struct{}), shards: shards, dir: dir,
		peers: make(map[int]*peerLink), peerConn: make(map[int]*peerConnState),
		pendingGain: make(map[stream.ID]gainMark), inflight: make(map[uint64]*inflightReq),
	}
	node.shards, node.dir = shards, dir
	for site := 0; site < mergeSites; site++ {
		dead := h.rng.Intn(2) == 0
		h.ref.peerConn[site] = &peerConnState{dead: dead}
		node.peerConn[site] = &peerConnState{dead: dead}
	}
	return h
}

// clone deep-copies a wire message through its JSON form, so the two
// sides never share a slice or map.
func clone[T any](t testing.TB, v *T) *T {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	out := new(T)
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
	return out
}

func (h *mergeHarness) children() []int {
	ch := h.rng.Perm(mergeSites)[:1+h.rng.Intn(3)]
	sort.Ints(ch)
	return ch
}

func (h *mergeHarness) directory(tag string) [][]string {
	dir := make([][]string, h.shards)
	for k := range dir {
		dir[k] = []string{fmt.Sprintf("%s-%d", tag, k), fmt.Sprintf("%s-%d-standby", tag, k)}
	}
	return dir
}

// table draws a full directive for shard k holding only streams k owns,
// as a membership shard server sends it.
func (h *mergeHarness) table(k int, epoch uint64) *transport.Routes {
	r := &transport.Routes{Site: 1, Epoch: epoch, Shard: k, Shards: h.shards}
	for _, id := range h.owned[k] {
		if h.rng.Intn(3) == 0 {
			r.Forward = append(r.Forward, transport.Route{Stream: id, Children: h.children()})
		}
		switch h.rng.Intn(4) {
		case 0:
			r.Accepted = append(r.Accepted, id)
		case 1:
			r.Rejected = append(r.Rejected, id)
		}
	}
	if h.rng.Intn(2) == 0 {
		r.Directory = h.directory(fmt.Sprintf("e%d", epoch))
	}
	return r
}

func (h *mergeHarness) mesh(tag string) (map[int]string, map[int]float64) {
	peers := make(map[int]string)
	delays := make(map[int]float64)
	for site := 0; site < mergeSites; site++ {
		peers[site] = fmt.Sprintf("%s-peer-%d", tag, site)
		delays[site] = float64(site) * 1.5
	}
	return peers, delays
}

// epochFor draws the next directive epoch for shard k: usually newer
// than the held one, sometimes stale or a replay of it.
func (h *mergeHarness) epochFor(k int) uint64 {
	cur := h.ref.table().shardEpoch(k)
	if h.rng.Intn(100) < h.mix.stale {
		return uint64(h.rng.Int63n(int64(cur) + 1))
	}
	return cur + 1 + uint64(h.rng.Intn(2))
}

func (h *mergeHarness) boot() {
	peers, delays := h.mesh("boot")
	routes := make([]*transport.Routes, h.shards)
	for k := range routes {
		routes[k] = h.table(k, uint64(h.rng.Intn(3))) // epoch 0 is read as 1
		if h.rng.Intn(2) == 0 {
			routes[k].Peers, routes[k].DelayMs = peers, delays
		}
	}
	ref := make([]*transport.Routes, len(routes))
	mine := make([]*transport.Routes, len(routes))
	for k, r := range routes {
		ref[k], mine[k] = clone(h.t, r), clone(h.t, r)
	}
	h.ref.installShardRoutes(ref)
	h.node.installShardRoutes(mine)
}

func (h *mergeHarness) delta(k int) {
	u := &transport.RoutesUpdate{Site: 1, Epoch: h.epochFor(k), Shard: k}
	for _, id := range h.owned[k] {
		switch h.rng.Intn(8) {
		case 0:
			route := transport.Route{Stream: id}
			if h.rng.Intn(100) >= h.mix.clear {
				route.Children = h.children()
			}
			u.SetForward = append(u.SetForward, route)
			if h.rng.Intn(4) == 0 { // a later entry for the same stream wins
				u.SetForward = append(u.SetForward, transport.Route{Stream: id, Children: h.children()})
			}
		case 1:
			u.AddAccepted = append(u.AddAccepted, id)
		case 2:
			u.DelAccepted = append(u.DelAccepted, id)
		case 3:
			u.AddAccepted = append(u.AddAccepted, id)
			u.DelAccepted = append(u.DelAccepted, id)
		case 4:
			u.AddRejected = append(u.AddRejected, id)
		case 5:
			u.DelRejected = append(u.DelRejected, id)
		}
	}
	if h.rng.Intn(100) < h.mix.mesh {
		u.Peers = make(map[int]string)
		u.DelayMs = make(map[int]float64)
		cur := h.ref.table().routes.Peers
		for n := 1 + h.rng.Intn(2); n > 0; n-- {
			site := h.rng.Intn(mergeSites + 2) // may name a site new to the mesh
			if addr, ok := cur[site]; ok && h.rng.Intn(3) == 0 {
				u.Peers[site] = addr // unchanged address: no restart
			} else {
				u.Peers[site] = fmt.Sprintf("rejoin-%d-%d", u.Epoch, site)
			}
			u.DelayMs[site] = float64(h.rng.Intn(50))
		}
	}
	for _, id := range h.pendingIDs() {
		rq := h.reqs[id]
		if rq.shard != k || h.rng.Intn(2) == 0 {
			continue
		}
		a := transport.Ack{ID: id}
		for _, g := range rq.gained {
			if h.rng.Intn(2) == 0 {
				a.Accepted = append(a.Accepted, g)
			} else {
				a.Rejected = append(a.Rejected, g)
			}
		}
		u.Acks = append(u.Acks, a)
	}
	ref := clone(h.t, u)
	h.ref.applyUpdate(ref)
	h.ref.resolveAcks(ref)
	h.node.applyUpdate(k, clone(h.t, u))
}

func (h *mergeHarness) sync(k int) {
	r := h.table(k, h.epochFor(k))
	if h.rng.Intn(3) == 0 {
		// A full table may carry the mesh; a sync keeps the held one.
		r.Peers, r.DelayMs = h.mesh(fmt.Sprintf("sync%d", r.Epoch))
	}
	h.ref.applySync(clone(h.t, r))
	h.node.applySync(k, clone(h.t, r))
}

// resub registers an in-flight resubscribe toward shard k on both sides.
func (h *mergeHarness) resub(k int) {
	var gained []stream.ID
	for _, id := range h.owned[k] {
		if h.rng.Intn(3) == 0 {
			gained = append(gained, id)
		}
	}
	h.nextID++
	rq := &reqPair{shard: k, gained: gained, ref: make(chan *ResubscribeResult, 1), node: make(chan *ResubscribeResult, 1)}
	h.reqs[h.nextID] = rq
	h.ref.inflight[h.nextID] = &inflightReq{shard: k, gained: gained, ch: rq.ref}
	h.node.inflight[h.nextID] = &inflightReq{shard: k, gained: gained, ch: rq.node}
}

func (h *mergeHarness) pendingIDs() []uint64 {
	ids := make([]uint64, 0, len(h.reqs))
	for id := range h.reqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func (h *mergeHarness) run(steps int) {
	h.boot()
	h.check("boot")
	total := h.mix.delta + h.mix.sync + h.mix.resub
	for i := 0; i < steps && !h.t.Failed(); i++ {
		k := h.rng.Intn(h.shards)
		var kind string
		switch w := h.rng.Intn(total); {
		case w < h.mix.delta:
			kind = "delta"
			h.delta(k)
		case w < h.mix.delta+h.mix.sync:
			kind = "sync"
			h.sync(k)
		default:
			kind = "resubscribe"
			h.resub(k)
		}
		h.check(fmt.Sprintf("step %d (%s, shard %d)", i, kind, k))
	}
}

func sortedIDs(ids []stream.ID) []stream.ID {
	out := append([]stream.ID{}, ids...)
	sort.Slice(out, func(a, b int) bool { return out[a].Less(out[b]) })
	return out
}

func sortedRoutes(routes []transport.Route) []transport.Route {
	out := append([]transport.Route{}, routes...)
	sort.SliceStable(out, func(a, b int) bool { return out[a].Stream.Less(out[b].Stream) })
	return out
}

// sameMap compares two maps, treating nil and empty as equal.
func sameMap[K comparable, V any](a, b map[K]V) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// check compares the two sides' observable routing state.
func (h *mergeHarness) check(step string) {
	t := h.t
	rt, nt := h.ref.table(), h.node.table()
	want, got := rt.routes, h.node.Routes()
	// The reference's union table carried the last delta's epoch rather
	// than the snapshot's; Routes now reports the snapshot epoch, the
	// same value Epoch returns.
	if got.Site != want.Site || got.Epoch != rt.epoch {
		t.Errorf("%s: Routes site/epoch = %d/%d, reference %d/%d", step, got.Site, got.Epoch, want.Site, rt.epoch)
	}
	if !sameMap(got.Peers, want.Peers) || !sameMap(got.DelayMs, want.DelayMs) {
		t.Errorf("%s: mesh = %v %v, reference %v %v", step, got.Peers, got.DelayMs, want.Peers, want.DelayMs)
	}
	if g, w := sortedRoutes(got.Forward), sortedRoutes(want.Forward); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: Forward = %v, reference %v", step, g, w)
	}
	if g, w := sortedIDs(got.Accepted), sortedIDs(want.Accepted); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: Accepted = %v, reference %v", step, g, w)
	}
	if g, w := sortedIDs(got.Rejected), sortedIDs(want.Rejected); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: Rejected = %v, reference %v", step, g, w)
	}
	if h.node.Epoch() != rt.epoch {
		t.Errorf("%s: Epoch = %d, reference %d", step, h.node.Epoch(), rt.epoch)
	}
	for k := 0; k < h.shards; k++ {
		if g, w := nt.shardEpoch(k), rt.shardEpoch(k); g != w {
			t.Errorf("%s: shard %d epoch = %d, reference %d", step, k, g, w)
		}
	}
	if !sameMap(nt.forward, rt.forward) || !sameMap(nt.accepted, rt.accepted) {
		t.Errorf("%s: lookup maps = %v %v, reference %v %v", step, nt.forward, nt.accepted, rt.forward, rt.accepted)
	}
	if g, w := h.node.StaleUpdates(), h.ref.staleUpdates; g != w {
		t.Errorf("%s: StaleUpdates = %d, reference %d", step, g, w)
	}
	if len(h.node.pendingGain) != len(h.ref.pendingGain) {
		t.Errorf("%s: %d pending gains, reference %d", step, len(h.node.pendingGain), len(h.ref.pendingGain))
	}
	for id, w := range h.ref.pendingGain {
		if g, ok := h.node.pendingGain[id]; !ok || g.epoch != w.epoch {
			t.Errorf("%s: pending gain %v = %+v (held %v), reference epoch %d", step, id, g, ok, w.epoch)
		}
	}
	if !reflect.DeepEqual(h.node.dir, h.ref.dir) {
		t.Errorf("%s: directory = %v, reference %v", step, h.node.dir, h.ref.dir)
	}
	for site, w := range h.ref.peerConn {
		if g := h.node.peerConn[site]; g.dead != w.dead {
			t.Errorf("%s: peer %d dead = %v, reference %v", step, site, g.dead, w.dead)
		}
	}
	for _, id := range h.pendingIDs() {
		rq := h.reqs[id]
		var w, g *ResubscribeResult
		select {
		case w = <-rq.ref:
		default:
		}
		select {
		case g = <-rq.node:
		default:
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: resubscribe %d settled as %+v, reference %+v", step, id, g, w)
		}
		if w != nil || g != nil {
			delete(h.reqs, id)
		}
		if _, held := h.node.inflight[id]; held != (w == nil && g == nil) {
			t.Errorf("%s: resubscribe %d in flight = %v after settling %+v", step, id, held, g)
		}
	}
}

// TestRoutingMergeMatchesReference drives the per-shard install step and
// the previous three merge paths with the same random sequences — boot
// tables, deltas (cleared duties, the same ID added and deleted, mesh
// changes, acknowledgements), syncs with and without a directory, stale
// and replayed epochs, in-flight resubscribes settled by a sync — over
// one, two and three shards, and requires identical state after every
// step.
func TestRoutingMergeMatchesReference(t *testing.T) {
	base := mergeMix{delta: 6, sync: 2, resub: 2, stale: 15, mesh: 10, clear: 30}
	cases := []struct {
		name   string
		shards int
		mix    mergeMix
	}{
		{"one shard", 1, base},
		{"two shards", 2, base},
		{"three shards", 3, base},
		{"stale and replayed", 2, mergeMix{delta: 5, sync: 3, resub: 2, stale: 60, mesh: 10, clear: 30}},
		{"syncs settle resubscribes", 3, mergeMix{delta: 2, sync: 4, resub: 4, stale: 10}},
		{"mesh deltas", 2, mergeMix{delta: 8, sync: 1, resub: 1, stale: 10, mesh: 70, clear: 30}},
		{"cleared duties", 1, mergeMix{delta: 8, sync: 1, resub: 1, stale: 10, mesh: 5, clear: 80}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				newMergeHarness(t, seed, tc.shards, tc.mix).run(150)
				if t.Failed() {
					t.Fatalf("seed %d diverged", seed)
				}
			}
		})
	}
}

// FuzzRoutingMerge is the coverage-guided form of the equivalence test:
// the input picks the seed, the shard count and the message mix.
func FuzzRoutingMerge(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(7), uint8(1), uint8(0x5a))
	f.Add(int64(42), uint8(2), uint8(0xf3))
	f.Fuzz(func(t *testing.T, seed int64, shards, mix uint8) {
		m := mergeMix{
			delta: 1 + int(mix&3), sync: 1 + int(mix>>2&3), resub: 1 + int(mix>>4&3),
			stale: 10 * int(mix>>6), mesh: 20, clear: 30,
		}
		newMergeHarness(t, seed, 1+int(shards%3), m).run(80)
	})
}

// TestControlMessageShardMustMatchLink sends deltas and syncs whose
// shard field is negative, out of range, or another shard's over shard
// 0's control link: each is dropped as a protocol error without a panic
// or any table change.
func TestControlMessageShardMustMatchLink(t *testing.T) {
	src := stream.ID{Site: 0, Index: 0}
	for _, shard := range []int{-1, math.MaxInt32, 1} {
		for _, m := range []*transport.Message{
			{Type: transport.MsgRoutesUpdate, Update: &transport.RoutesUpdate{
				Site: 1, Epoch: 5, Shard: shard, AddAccepted: []stream.ID{src},
			}},
			{Type: transport.MsgRoutes, Routes: &transport.Routes{
				Site: 1, Epoch: 5, Shard: shard, Accepted: []stream.ID{src},
			}},
		} {
			t.Run(fmt.Sprintf("type %d shard %d", m.Type, shard), func(t *testing.T) {
				node, err := New(Config{Site: 1, Cameras: 1, Profile: testProfile()})
				if err != nil {
					t.Fatal(err)
				}
				node.shards, node.dir = 2, [][]string{{"a"}, {"b"}}
				node.installShardRoutes([]*transport.Routes{{Site: 1, Epoch: 1}, {Site: 1, Epoch: 1, Shard: 1}})
				before := node.table()

				// Deliver over shard 0's control link, as the server would.
				link, server := net.Pipe()
				done := make(chan error, 1)
				go func() { done <- node.readLoop(0, link) }()
				if err := transport.WriteMessage(server, m); err != nil {
					t.Fatal(err)
				}
				server.Close()
				<-done

				if node.table() != before {
					t.Error("routing table changed")
				}
				if node.Err() == nil {
					t.Error("mismatched shard not reported through Err")
				}
				if got := node.StaleUpdates(); got != 0 {
					t.Errorf("StaleUpdates = %d, want 0", got)
				}
			})
		}
	}
}

// TestReceiveStampWithinAdmission alternates add/drop deltas for one
// stream while frames of it arrive concurrently. Every delivery's
// ReceivedAt must fall inside a window in which the node admitted the
// stream: from before the add was installed to after the drop returned.
func TestReceiveStampWithinAdmission(t *testing.T) {
	node, err := New(Config{Site: 1, Cameras: 1, Profile: testProfile(), DeliveryBuffer: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	src := stream.ID{Site: 0, Index: 0}
	node.installShardRoutes([]*transport.Routes{{Site: 1, Epoch: 1}})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var seq atomic.Uint64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				node.receive(&stream.Frame{Stream: src, Seq: seq.Add(1), CaptureMs: time.Now().UnixMilli(), Payload: []byte{1}})
			}
		}()
	}
	var stamps []time.Time
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case d := <-node.Deliveries():
				stamps = append(stamps, d.ReceivedAt)
			case <-stop:
				for {
					select {
					case d := <-node.Deliveries():
						stamps = append(stamps, d.ReceivedAt)
					default:
						return
					}
				}
			}
		}
	}()

	type window struct{ from, to time.Time }
	var windows []window
	epoch := uint64(1)
	for i := 0; i < 2000; i++ {
		from := time.Now()
		epoch++
		node.applyUpdate(0, &transport.RoutesUpdate{Site: 1, Epoch: epoch, AddAccepted: []stream.ID{src}})
		runtime.Gosched()
		epoch++
		node.applyUpdate(0, &transport.RoutesUpdate{Site: 1, Epoch: epoch, DelAccepted: []stream.ID{src}})
		windows = append(windows, window{from, time.Now()})
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	<-drained

	if len(stamps) == 0 {
		t.Fatal("no frame delivered while the stream was admitted")
	}
	for _, at := range stamps {
		i := sort.Search(len(windows), func(i int) bool { return windows[i].from.After(at) }) - 1
		if i < 0 || at.After(windows[i].to) {
			t.Fatalf("delivery stamped %v lies outside every admission window", at)
		}
	}
}
