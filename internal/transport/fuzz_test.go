package transport

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"github.com/tele3d/tele3d/internal/stream"
)

// allocSlack is what a decode may allocate beyond its message body: the
// Message, the decoded structs and the allocator's span-granular
// accounting.
const allocSlack = 1 << 20

// FuzzReadMessage feeds arbitrary bytes to ReadMessage. Nothing may
// panic or allocate past MaxMessage, and every message that decodes must
// re-encode through WriteMessage and decode again to an equal Message.
func FuzzReadMessage(f *testing.F) {
	id := stream.ID{Site: 2, Index: 1}
	seeds := []*Message{
		{Type: MsgHello, Hello: &Hello{Site: 3, Addr: "127.0.0.1:9", In: 20, Out: 18, NumStreams: 4, Epoch: 2, LastResub: 5}},
		{Type: MsgSubscribe, Subscribe: &Subscribe{Site: 1, Streams: []stream.ID{id}}},
		{Type: MsgRoutes, Routes: &Routes{
			Site: 1, Epoch: 3, Shard: 0, Shards: 1, Directory: [][]string{{"m:1"}},
			Peers: map[int]string{2: "b:2"}, DelayMs: map[int]float64{2: 12.5},
			Forward:  []Route{{Stream: id, Children: []int{0, 3}}},
			Accepted: []stream.ID{id}, Rejected: []stream.ID{{Site: 4}},
		}},
		{Type: MsgFrame, Frame: &stream.Frame{Stream: id, Seq: 9, CaptureMs: 600, Payload: []byte("macroblocks")}},
		{Type: MsgPeerHello, PeerHello: &PeerHello{Site: 7}},
		{Type: MsgResubscribe, Resubscribe: &Resubscribe{Site: 1, ID: 4, Gained: []stream.ID{id}, Lost: []stream.ID{{Site: 5}}}},
		{Type: MsgRoutesUpdate, Update: &RoutesUpdate{
			Site: 1, Epoch: 4, Acks: []Ack{{ID: 4, Accepted: []stream.ID{id}}},
			SetForward: []Route{{Stream: id}}, AddAccepted: []stream.ID{id}, DelRejected: []stream.ID{id},
		}},
		{Type: MsgError, Error: &ProtocolError{Msg: "duplicate registration for site 3"}},
	}
	for _, m := range seeds {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgFrame)})  // length past MaxMessage
	f.Add([]byte{0, 0, 0, 40, byte(MsgFrame), 0x3D, 0x71}) // truncated frame
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := ReadMessage(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxMessage+allocSlack {
			t.Fatalf("ReadMessage of %d bytes allocated %d bytes, bound %d", len(data), grew, MaxMessage)
		}
		if err != nil {
			return
		}
		var wire bytes.Buffer
		if err := WriteMessage(&wire, m); err != nil {
			t.Fatalf("re-encode %+v: %v", m, err)
		}
		again, err := ReadMessage(&wire)
		if err != nil {
			t.Fatalf("decode of re-encoded message: %v", err)
		}
		if wire.Len() != 0 {
			t.Fatalf("re-encoded message left %d trailing bytes", wire.Len())
		}
		canonicalize(reflect.ValueOf(m))
		canonicalize(reflect.ValueOf(again))
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", again, m)
		}
	})
}

// canonicalize replaces every empty slice and map reachable from v with
// nil. JSON's omitempty spells "nothing" by omission, which decodes to
// nil, so a message decoded from `"gained":[]` and its round trip differ
// only there.
func canonicalize(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			canonicalize(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			canonicalize(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
			return
		}
		for i := 0; i < v.Len(); i++ {
			canonicalize(v.Index(i))
		}
	case reflect.Map:
		if v.Len() == 0 {
			v.SetZero()
		}
	}
}
