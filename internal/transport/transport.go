// Package transport defines the wire protocol of the 3DTI data plane:
// length-prefixed messages over TCP carrying either JSON control payloads
// (registration, subscription, epoch-versioned routing tables and their
// mid-session deltas) or binary 3D video frames.
//
// Message layout (big endian):
//
//	length uint32   // length of type + payload
//	type   uint8
//	payload [length-1]byte
package transport

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/tele3d/tele3d/internal/stream"
)

// MsgType discriminates wire messages.
type MsgType uint8

// Wire message types.
const (
	// MsgHello registers an RP with the membership server.
	MsgHello MsgType = 1
	// MsgSubscribe carries an RP's aggregated stream subscriptions.
	MsgSubscribe MsgType = 2
	// MsgRoutes delivers the computed routing table to an RP.
	MsgRoutes MsgType = 3
	// MsgFrame carries one encoded 3D video frame between RPs.
	MsgFrame MsgType = 4
	// MsgPeerHello identifies the dialing RP on an RP-to-RP connection.
	MsgPeerHello MsgType = 5
	// MsgResubscribe carries a mid-session subscription diff from an RP
	// to the membership server (a view change, join, or leave).
	MsgResubscribe MsgType = 6
	// MsgRoutesUpdate carries an incremental, epoch-versioned routing
	// delta from the membership server to one affected RP.
	MsgRoutesUpdate MsgType = 7
	// MsgError reports a control-plane protocol error to the peer (e.g.
	// a duplicate site registration) before the connection is closed.
	MsgError MsgType = 8
)

// MaxMessage bounds a single wire message (a frame plus slack).
const MaxMessage = stream.MaxPayload + 4096

// Hello is the registration control message. Epoch and LastResub are
// zero on a session's first registration; a re-registration after a
// membership failover carries the site's last-seen routing epoch for the
// shard (so the successor resumes the epoch sequence above it) and the
// highest resubscribe request ID the site has issued (so retried diffs
// are recognized as duplicates instead of double-applied).
type Hello struct {
	Site       int    `json:"site"`
	Addr       string `json:"addr"` // the RP's peer-facing listen address
	In         int    `json:"in"`   // inbound capacity, streams
	Out        int    `json:"out"`  // outbound capacity, streams
	NumStreams int    `json:"numStreams"`
	// Epoch is the highest routing-table epoch the site has seen from
	// this shard (0 on first registration).
	Epoch uint64 `json:"epoch,omitempty"`
	// LastResub is the highest resubscribe request ID the site has issued
	// (0 on first registration).
	LastResub uint64 `json:"lastResub,omitempty"`
}

// Subscribe carries the site's aggregated subscription set.
type Subscribe struct {
	Site    int         `json:"site"`
	Streams []stream.ID `json:"streams"`
}

// PeerHello identifies the dialing site on a data connection.
type PeerHello struct {
	Site int `json:"site"`
}

// Route describes the forwarding duty for one stream at one RP.
type Route struct {
	Stream   stream.ID `json:"stream"`
	Children []int     `json:"children"` // sites to forward the stream to
}

// Resubscribe is an RP's mid-session subscription diff: streams its
// displays newly need and streams they no longer need. ID is a per-RP
// request counter echoed back in the requester's RoutesUpdate, so the
// RP can match the server's acknowledgement to the request.
type Resubscribe struct {
	Site   int         `json:"site"`
	ID     uint64      `json:"id"`
	Gained []stream.ID `json:"gained,omitempty"`
	Lost   []stream.ID `json:"lost,omitempty"`
}

// Ack is one acknowledged resubscribe request inside a RoutesUpdate: the
// request's ID echoed back with the admission decision for each gained
// stream. A coalesced (batched) update carries one Ack per request it
// folded in, so every requester learns its own outcome even when many
// diffs share a single epoch bump.
type Ack struct {
	ID       uint64      `json:"id"`
	Accepted []stream.ID `json:"accepted,omitempty"`
	Rejected []stream.ID `json:"rejected,omitempty"`
}

// RoutesUpdate is an incremental routing-table delta for one RP. Epoch
// is the shard's table version after the change: an RP applies an
// update only if its epoch is newer than the table it currently runs
// for that shard, so reordered or replayed updates are handled
// deterministically (dropped). Acks lists every resubscribe request the
// update acknowledges to this RP, one entry per folded-in request.
type RoutesUpdate struct {
	Site  int    `json:"site"`
	Epoch uint64 `json:"epoch"`
	Shard int    `json:"shard,omitempty"`
	Acks  []Ack  `json:"acks,omitempty"`
	// SetForward replaces the forwarding duty for each listed stream; an
	// entry with no children clears the duty for that stream.
	SetForward []Route `json:"setForward,omitempty"`
	// AddAccepted/DelAccepted adjust the set of remote streams this RP
	// receives; AddRejected/DelRejected adjust the unsatisfiable set.
	AddAccepted []stream.ID `json:"addAccepted,omitempty"`
	DelAccepted []stream.ID `json:"delAccepted,omitempty"`
	AddRejected []stream.ID `json:"addRejected,omitempty"`
	DelRejected []stream.ID `json:"delRejected,omitempty"`
	// Peers and DelayMs merge new or changed peer addresses and edge
	// delays into the RP's table (normally empty mid-session).
	Peers   map[int]string  `json:"peers,omitempty"`
	DelayMs map[int]float64 `json:"delayMs,omitempty"`
}

// ProtocolError is the server's explanation for rejecting a control
// connection.
type ProtocolError struct {
	Msg string `json:"msg"`
}

// Routes is a membership server's routing directive for one RP. In a
// sharded control plane each shard server sends the directive for the
// trees it owns (streams s with StreamShard(s, Shards) == Shard); the
// RP's effective table is the disjoint union across shards.
type Routes struct {
	Site int `json:"site"`
	// Epoch versions the table; RoutesUpdate deltas carry the epochs
	// that follow. Epochs are per shard.
	Epoch uint64 `json:"epoch"`
	// Shard and Shards identify the sending server's slice of the stream
	// space; 0/1 (or 0/0, legacy) means the whole forest.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
	// Directory is the replicated session directory: Directory[k] lists
	// the dial addresses of shard k's membership servers, primary first,
	// standbys after. RPs use it to discover shard ownership and to fail
	// over to a successor when a shard's control connection dies.
	Directory [][]string `json:"directory,omitempty"`
	// Peers maps site index to its RP dial address.
	Peers map[int]string `json:"peers"`
	// DelayMs maps site index to the emulated one-way WAN latency applied
	// to frames this RP sends toward that site.
	DelayMs map[int]float64 `json:"delayMs"`
	// Forward lists forwarding duties for streams this RP sources or
	// receives.
	Forward []Route `json:"forward"`
	// Accepted lists the remote streams this RP will receive.
	Accepted []stream.ID `json:"accepted"`
	// Rejected lists the subscriptions the overlay could not satisfy.
	Rejected []stream.ID `json:"rejected"`
}

// Message is one decoded wire message. Exactly one payload field is set,
// according to Type.
type Message struct {
	Type        MsgType
	Hello       *Hello
	Subscribe   *Subscribe
	PeerHello   *PeerHello
	Routes      *Routes
	Frame       *stream.Frame
	Resubscribe *Resubscribe
	Update      *RoutesUpdate
	Error       *ProtocolError
}

// ErrMessageTooLarge is returned when a length prefix exceeds MaxMessage.
var ErrMessageTooLarge = errors.New("transport: message exceeds size bound")

// maxPooledBuf caps the write buffers WriteMessage returns to its pool.
// It holds a default-profile frame (~59 KiB) with room to spare; a rarer,
// larger message (a big routing table) is left to the collector so the
// pool never pins megabytes per P.
const maxPooledBuf = 256 << 10

// writeBufs holds WriteMessage's scratch buffers. Each message is
// composed — header and body — into one pooled buffer, handed to a
// single Write and returned: io.Writer implementations must not retain
// the slice, and both fabrics copy on Write.
var writeBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteMessage encodes m and writes it with exactly one Write call.
func WriteMessage(w io.Writer, m *Message) error {
	bp := writeBufs.Get().(*[]byte)
	buf, err := appendMessage((*bp)[:0], m)
	if err == nil {
		_, err = w.Write(buf)
	}
	if cap(buf) <= maxPooledBuf {
		*bp = buf[:0]
		writeBufs.Put(bp)
	}
	return err
}

// appendMessage appends the wire form of m — length prefix, type byte,
// payload — to dst.
func appendMessage(dst []byte, m *Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(m.Type))
	var err error
	switch m.Type {
	case MsgHello:
		dst, err = appendJSON(dst, m.Hello)
	case MsgSubscribe:
		dst, err = appendJSON(dst, m.Subscribe)
	case MsgPeerHello:
		dst, err = appendJSON(dst, m.PeerHello)
	case MsgRoutes:
		dst, err = appendJSON(dst, m.Routes)
	case MsgResubscribe:
		dst, err = appendJSON(dst, m.Resubscribe)
	case MsgRoutesUpdate:
		dst, err = appendJSON(dst, m.Update)
	case MsgError:
		dst, err = appendJSON(dst, m.Error)
	case MsgFrame:
		dst, err = stream.AppendEncode(dst, m.Frame)
	default:
		return dst, fmt.Errorf("transport: unknown message type %d", m.Type)
	}
	if err != nil {
		return dst, fmt.Errorf("transport: encode type %d: %w", m.Type, err)
	}
	n := len(dst) - start - 4 // type byte + payload
	if n > MaxMessage {
		return dst, ErrMessageTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

func appendJSON(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

// ReadMessage reads and decodes one message.
func ReadMessage(r io.Reader) (*Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < 1 {
		return nil, errors.New("transport: zero-length message")
	}
	if n > MaxMessage {
		return nil, ErrMessageTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	m := &Message{Type: MsgType(body[0])}
	payload := body[1:]
	switch m.Type {
	case MsgHello:
		m.Hello = &Hello{}
		return m, unmarshal(payload, m.Hello)
	case MsgSubscribe:
		m.Subscribe = &Subscribe{}
		return m, unmarshal(payload, m.Subscribe)
	case MsgPeerHello:
		m.PeerHello = &PeerHello{}
		return m, unmarshal(payload, m.PeerHello)
	case MsgRoutes:
		m.Routes = &Routes{}
		return m, unmarshal(payload, m.Routes)
	case MsgResubscribe:
		m.Resubscribe = &Resubscribe{}
		return m, unmarshal(payload, m.Resubscribe)
	case MsgRoutesUpdate:
		m.Update = &RoutesUpdate{}
		return m, unmarshal(payload, m.Update)
	case MsgError:
		m.Error = &ProtocolError{}
		return m, unmarshal(payload, m.Error)
	case MsgFrame:
		// body is freshly read for this message, so the frame may keep
		// it: Decode's payload aliases it instead of copying.
		f, _, err := stream.Decode(payload)
		if err != nil {
			return nil, fmt.Errorf("transport: decode frame: %w", err)
		}
		m.Frame = f
		return m, nil
	default:
		return nil, fmt.Errorf("transport: unknown message type %d", m.Type)
	}
}

func unmarshal(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("transport: decode control payload: %w", err)
	}
	return nil
}
