package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"github.com/tele3d/tele3d/internal/stream"
	"github.com/tele3d/tele3d/internal/transport"
)

// microReps is how many times a single call is timed; the median is kept.
const microReps = 101

// timeCall times fn microReps times and returns the median in
// microseconds.
func timeCall(fn func() error) (float64, error) {
	us := make([]float64, microReps)
	for i := range us {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(t)) / float64(time.Microsecond)
	}
	return median(us), nil
}

// streamMicro times the frame generator and the frame codec at a
// profile: stream.next_us, stream.encode_us, stream.decode_us.
func streamMicro(profile stream.Profile, put func(name string, v float64)) error {
	g, err := stream.NewGenerator(stream.ID{Site: 0, Index: 0}, profile, 1)
	if err != nil {
		return err
	}
	var f *stream.Frame
	next, err := timeCall(func() error { f = g.Next(); return nil })
	if err != nil {
		return err
	}
	var enc []byte
	encode, err := timeCall(func() error {
		var err error
		enc, err = stream.Encode(f)
		return err
	})
	if err != nil {
		return err
	}
	decode, err := timeCall(func() error {
		_, _, err := stream.Decode(enc)
		return err
	})
	if err != nil {
		return err
	}
	put("stream.next_us", next)
	put("stream.encode_us", encode)
	put("stream.decode_us", decode)
	return nil
}

// replayedTypes are the message types whose largest captured instance
// is replayed through the transport codec.
var replayedTypes = []transport.MsgType{transport.MsgRoutes, transport.MsgRoutesUpdate, transport.MsgFrame}

// codecMicro replays the largest captured message of each replayed type
// through transport.ReadMessage and transport.WriteMessage; a type the
// run never sent reads 0.
func codecMicro(cf *countingFabric, put func(name string, v float64)) error {
	for _, t := range replayedTypes {
		name := msgNames[t]
		var raw []byte
		if cf != nil {
			raw = cf.largestMessage(t)
		}
		if len(raw) == 0 {
			put("transport.decode_us."+name, 0)
			put("transport.encode_us."+name, 0)
			continue
		}
		var m *transport.Message
		decode, err := timeCall(func() error {
			var err error
			m, err = transport.ReadMessage(bytes.NewReader(raw))
			return err
		})
		if err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		encode, err := timeCall(func() error { return transport.WriteMessage(io.Discard, m) })
		if err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		put("transport.decode_us."+name, decode)
		put("transport.encode_us."+name, encode)
	}
	return nil
}
