package transport

import (
	"bytes"
	"io"
	"testing"

	"github.com/tele3d/tele3d/internal/stream"
)

// defaultFrameMessage returns a frame message at the paper's default
// profile (~59 KB payload) and its wire form.
func defaultFrameMessage(t *testing.T) (*Message, []byte) {
	t.Helper()
	g, err := stream.NewGenerator(stream.ID{Site: 3, Index: 1}, stream.DefaultProfile(), 7)
	if err != nil {
		t.Fatal(err)
	}
	m := &Message{Type: MsgFrame, Frame: g.Next()}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	return m, buf.Bytes()
}

// TestWriteMessageFrameZeroAllocs pins the pooled write path: header and
// frame are composed in a reused buffer, so a steady-state frame write
// allocates nothing.
func TestWriteMessageFrameZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	m, _ := defaultFrameMessage(t)
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteMessage(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WriteMessage(frame) = %v allocs, want 0", allocs)
	}
}

// writeCounter counts Write calls.
type writeCounter struct{ writes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), nil
}

// TestWriteMessageSingleWrite pins one Write per message: the virtual
// fabric times each Write as one segment, so a split header would travel
// on its own.
func TestWriteMessageSingleWrite(t *testing.T) {
	frame, _ := defaultFrameMessage(t)
	for _, m := range []*Message{frame, {Type: MsgPeerHello, PeerHello: &PeerHello{Site: 4}}} {
		var w writeCounter
		if err := WriteMessage(&w, m); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("type %d: %d writes, want 1", m.Type, w.writes)
		}
	}
}

// TestReadMessageFrameAllocs pins the in-place decode: the frame keeps
// the freshly read body instead of copying its payload. What remains is
// the reader, the length prefix, the body, the Message and the Frame.
func TestReadMessageFrameAllocs(t *testing.T) {
	_, raw := defaultFrameMessage(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ReadMessage(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Errorf("ReadMessage(frame) = %v allocs, want <= 5 (no payload copy)", allocs)
	}
}

// TestReadMessageFramesDoNotShareMemory pins the aliasing contract: a
// decoded payload aliases its own message body, never the reader's
// buffer or a previous frame, so frames read back to back stay intact.
func TestReadMessageFramesDoNotShareMemory(t *testing.T) {
	g, err := stream.NewGenerator(stream.ID{Site: 1, Index: 0}, stream.DefaultProfile(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	sent := []*stream.Frame{g.Next(), g.Next()}
	for _, f := range sent {
		if err := WriteMessage(&wire, &Message{Type: MsgFrame, Frame: f}); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(wire.Bytes())
	var got []*stream.Frame
	for range sent {
		m, err := ReadMessage(r)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m.Frame)
	}
	a, b := got[0].Payload, got[1].Payload
	if cap(a) != len(a) {
		t.Errorf("payload cap %d > len %d: an append would write into the next bytes", cap(a), len(a))
	}
	// Mutating one frame must leave the other frame and the wire intact.
	for i := range a {
		a[i] ^= 0xFF
	}
	if !bytes.Equal(b, sent[1].Payload) {
		t.Error("mutating frame 0 changed frame 1")
	}
	again, err := ReadMessage(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Frame.Payload, sent[0].Payload) {
		t.Error("mutating frame 0 changed the reader's bytes")
	}
}
