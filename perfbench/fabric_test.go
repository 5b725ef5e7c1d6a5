package main

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

// tally is a wireSink that records what the parser attributes.
type tally struct {
	bytes, msgs [numMsgTypes]int64
	kept        [numMsgTypes][]byte
}

func (s *tally) count(t byte, bytes, msgs int64) {
	s.bytes[t] += bytes
	s.msgs[t] += msgs
}

func (s *tally) keep(t byte, msg []byte) {
	if len(msg) > len(s.kept[t]) {
		s.kept[t] = append([]byte(nil), msg...)
	}
}

func wireMessages(t *testing.T) []*transport.Message {
	t.Helper()
	frame := func(n int) *transport.Message {
		return &transport.Message{Type: transport.MsgFrame, Frame: &stream.Frame{
			Stream: stream.ID{Site: 1, Index: 2}, Seq: uint64(n), Payload: bytes.Repeat([]byte{byte(n)}, 100*n),
		}}
	}
	return []*transport.Message{
		{Type: transport.MsgHello, Hello: &transport.Hello{Site: 3, Addr: "vnet:3"}},
		{Type: transport.MsgSubscribe, Subscribe: &transport.Subscribe{}},
		{Type: transport.MsgRoutes, Routes: &transport.Routes{Site: 3, Epoch: 1,
			Peers: map[int]string{1: "vnet:1", 2: "vnet:2"}, DelayMs: map[int]float64{1: 12.5}}},
		frame(1),
		{Type: transport.MsgPeerHello, PeerHello: &transport.PeerHello{Site: 3}},
		frame(7),
		{Type: transport.MsgResubscribe, Resubscribe: &transport.Resubscribe{Site: 3, ID: 4}},
		{Type: transport.MsgRoutesUpdate, Update: &transport.RoutesUpdate{Site: 3, Epoch: 2}},
		frame(3),
		{Type: transport.MsgError, Error: &transport.ProtocolError{Msg: "duplicate site"}},
	}
}

func TestWireParserAttributesBytesAcrossSplits(t *testing.T) {
	var stream bytes.Buffer
	var want tally
	for _, m := range wireMessages(t) {
		var one bytes.Buffer
		if err := transport.WriteMessage(&one, m); err != nil {
			t.Fatal(err)
		}
		want.count(byte(m.Type), int64(one.Len()), 1)
		want.keep(byte(m.Type), one.Bytes())
		stream.Write(one.Bytes())
	}
	wire := stream.Bytes()

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var p wireParser
		var got tally
		// Cut the stream at random points, including one-byte reads that
		// split the length prefix and the type byte.
		for rest := wire; len(rest) > 0; {
			k := 1 + rng.Intn(12)
			if trial%2 == 1 {
				k = 1 + rng.Intn(400)
			}
			if k > len(rest) {
				k = len(rest)
			}
			p.feed(rest[:k], &got)
			rest = rest[k:]
		}
		if got.bytes != want.bytes || got.msgs != want.msgs {
			t.Fatalf("trial %d: bytes %v msgs %v, want bytes %v msgs %v", trial, got.bytes, got.msgs, want.bytes, want.msgs)
		}
		for typ := range want.kept {
			if !bytes.Equal(got.kept[typ], want.kept[typ]) {
				t.Fatalf("trial %d: largest %s message not captured whole", trial, msgNames[typ])
			}
		}
	}
}

func TestWireParserLargestReplays(t *testing.T) {
	var p wireParser
	var got tally
	for _, m := range wireMessages(t) {
		var one bytes.Buffer
		if err := transport.WriteMessage(&one, m); err != nil {
			t.Fatal(err)
		}
		p.feed(one.Bytes(), &got)
	}
	m, err := transport.ReadMessage(bytes.NewReader(got.kept[transport.MsgFrame]))
	if err != nil {
		t.Fatal(err)
	}
	if m.Frame.Seq != 7 {
		t.Fatalf("largest frame captured has seq %d, want 7", m.Frame.Seq)
	}
}
