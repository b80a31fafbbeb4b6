// Package simnet models the experimental network fabric: packets,
// network interfaces with transmit serialization, point-to-point wires
// with propagation delay, and store-and-forward L2 switches.
//
// The fabric is deliberately composable: a wire ends at any Port, so a
// path can be assembled as NIC -> Wire -> DelayNode -> NIC, exactly
// mirroring how Emulab interposes delay nodes on experiment links
// (paper §2).
//
// One event per hop: Send knows when a packet leaves the transmitter,
// so it queues the packet on its egress wire (attached, routed, or the
// NIC's own ingress into a switch) due at that time plus the wire's
// delay; a wire has one producer, so its exits never decrease.
//
// Frozen receivers: when a node is suspended for a checkpoint, packets
// that arrive at its NIC are appended to a per-flow replay log and
// delivered in order on resume (paper §3.2). With delay nodes capturing
// the bandwidth-delay product, the log stays bounded by the checkpoint
// synchronization skew.
package simnet

import (
	"fmt"

	"emucheck/internal/sim"
)

// Addr identifies a network endpoint (one NIC).
type Addr string

// Bitrate is a link speed in bits per second.
type Bitrate int64

// Common link speeds used by the Emulab pc3000 configuration.
const (
	Mbps Bitrate = 1_000_000
	Gbps Bitrate = 1_000_000_000
)

// TxTime reports how long serializing size bytes takes at rate r.
func (r Bitrate) TxTime(size int) sim.Time {
	if r <= 0 {
		return 0
	}
	return sim.Time(int64(size) * 8 * int64(sim.Second) / int64(r))
}

// Packet is one frame traversing the fabric. Payload carries the
// protocol-specific content (e.g. a TCP segment) and is never inspected
// by the fabric itself — Emulab supports any protocol above L2 (§3.3),
// and so does this model.
type Packet struct {
	ID      uint64
	Src     Addr
	Dst     Addr
	Flow    string // source-destination flow label for replay ordering
	Size    int    // bytes on the wire
	Payload any
	SentAt  sim.Time

	// owner is the NIC whose free list handed the packet out (nil for a
	// packet built by hand or by Clone); Release returns it there.
	owner *NIC
}

// Clone returns a shallow copy of the packet. The copy belongs to no
// free list, so a checkpoint image never shares a pooled packet.
func (p *Packet) Clone() *Packet {
	c := *p
	c.owner = nil
	return &c
}

// Release returns a NewPacket packet to its NIC's free list after its
// last reader; other packets, and dropped ones, are left to the GC.
func (p *Packet) Release() {
	n := p.owner
	if n == nil {
		return
	}
	*p = Packet{owner: n}
	n.free = append(n.free, p)
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt %d %s->%s (%dB, flow %s)", p.ID, p.Src, p.Dst, p.Size, p.Flow)
}

// Port is anything that can accept a packet at the current simulation
// time at the far end of a wire: a delay-node pipe or a NIC's receive
// side.
type Port interface {
	Accept(pkt *Packet)
}

// Counters aggregates traffic statistics on a NIC direction.
type Counters struct {
	Packets uint64
	Bytes   uint64
}

// NIC is a network interface: it serializes outbound packets at its
// configured speed onto its egress wires, and delivers inbound packets
// to a handler. The receive side can be frozen for checkpoints.
type NIC struct {
	sim     *sim.Simulator
	addr    Addr
	speed   Bitrate
	out     *Wire          // egress for destinations without a route
	routes  map[Addr]*Wire // per-destination egress of a multi-link node
	handler func(*Packet)

	txFreeAt sim.Time // when the transmitter finishes its current queue

	frozen bool
	// replay holds packets received while frozen, in arrival order:
	// first those a Thaw has scheduled, then the last logged ones, which
	// await the next Thaw. Each scheduled replayFn delivers the head.
	replay    fifo[*Packet]
	logged    int
	replayFn  func()
	replayGap sim.Time // spacing between replayed packets

	nextID uint64
	free   []*Packet // released packets for NewPacket

	// flows caches the "src>dst" flow label per destination: a NIC
	// talks to a handful of peers and pays a Send per packet, so
	// rebuilding the identical concatenation per call was one of the
	// per-packet allocations the PR 8 -memprofile sweep removed.
	flows map[Addr]string

	TX, RX Counters
	// Dropped counts packets discarded because no handler was attached.
	Dropped uint64
}

// NewNIC creates an interface with the given address and line rate.
// The replay gap defaults to 1 µs, approximating back-to-back delivery
// without creating simultaneous events.
func NewNIC(s *sim.Simulator, addr Addr, speed Bitrate) *NIC {
	return &NIC{sim: s, addr: addr, speed: speed, replayGap: sim.Microsecond}
}

// Addr reports the NIC's address.
func (n *NIC) Addr() Addr { return n.addr }

// Attach makes w the NIC's egress for every destination without a
// Route. A wire carries one NIC's traffic.
func (n *NIC) Attach(w *Wire) { n.out = w }

// Route makes w the egress for packets to dst: the output router of a
// node with one NIC per link. While one destination is routed its wire
// carries every packet, as a lone link would; with more, a packet to
// an unrouted destination is dropped once transmitted.
func (n *NIC) Route(dst Addr, w *Wire) {
	if n.routes == nil {
		n.routes = make(map[Addr]*Wire)
	}
	n.routes[dst] = w
	n.out = nil
	if len(n.routes) == 1 {
		n.out = w
	}
}

// OnReceive installs the inbound packet handler.
func (n *NIC) OnReceive(h func(*Packet)) { n.handler = h }

// NewPacket returns a zeroed packet from the NIC's free list. Its last
// reader hands it back with Release.
func (n *NIC) NewPacket() *Packet {
	k := len(n.free) - 1
	if k < 0 {
		return &Packet{owner: n}
	}
	p := n.free[k]
	n.free = n.free[:k]
	return p
}

// Send serializes the packet onto its egress wire, honoring the line
// rate: a packet begins transmission only after all previously queued
// packets have left the interface. It returns the scheduled wire-exit
// time. Sending with no egress at all counts as a drop.
func (n *NIC) Send(pkt *Packet) sim.Time {
	pkt.Src = n.addr
	if pkt.Flow == "" {
		pkt.Flow = n.flowLabel(pkt.Dst)
	}
	n.nextID++
	pkt.ID = n.nextID
	pkt.SentAt = n.sim.Now()
	if n.out == nil && n.routes == nil {
		n.Dropped++
		return n.sim.Now()
	}
	start := n.sim.Now()
	if n.txFreeAt > start {
		start = n.txFreeAt
	}
	done := start + n.speed.TxTime(pkt.Size)
	n.txFreeAt = done
	n.TX.Packets++
	n.TX.Bytes += uint64(pkt.Size)
	w := n.routes[pkt.Dst]
	if w == nil {
		w = n.out
	}
	if w != nil {
		w.carry(pkt, done)
	}
	return done
}

// flowLabel returns the cached "src>dst" label for a destination,
// building it on first use.
func (n *NIC) flowLabel(dst Addr) string {
	if s, ok := n.flows[dst]; ok {
		return s
	}
	if n.flows == nil {
		n.flows = make(map[Addr]string)
	}
	s := string(n.addr) + ">" + string(dst)
	n.flows[dst] = s
	return s
}

// Accept implements Port for the receive side.
func (n *NIC) Accept(pkt *Packet) {
	if n.frozen {
		n.replay.push(pkt)
		n.logged++
		return
	}
	n.deliver(pkt)
}

func (n *NIC) deliver(pkt *Packet) {
	n.RX.Packets++
	n.RX.Bytes += uint64(pkt.Size)
	if n.handler == nil {
		n.Dropped++
		return
	}
	n.handler(pkt)
}

// Freeze suspends inbound delivery; packets arriving while frozen are
// logged for in-order replay. The transmit side needs no freezing: a
// frozen guest generates no traffic, and packets already accepted for
// serialization represent bits physically on the wire.
func (n *NIC) Freeze() { n.frozen = true }

// Frozen reports whether the receive side is frozen.
func (n *NIC) Frozen() bool { return n.frozen }

// ReplayLogLen reports how many packets are waiting in the replay log.
func (n *NIC) ReplayLogLen() int { return n.logged }

// Thaw resumes delivery, replaying logged packets in arrival order with
// the configured inter-packet gap before any new traffic is handled.
// Per-flow order is preserved because arrival order preserves it, also
// when a Thaw comes while an earlier Thaw's replays are still pending.
func (n *NIC) Thaw() {
	n.frozen = false
	if n.logged > 0 && n.replayFn == nil {
		n.replayFn = func() { n.deliver(n.replay.pop()) }
	}
	gap := sim.Time(0)
	for ; n.logged > 0; n.logged-- {
		n.sim.DoAfter(gap, "nic.replay", n.replayFn)
		gap += n.replayGap
	}
}

// SetReplayGap overrides the spacing used when draining the replay log.
// The paper notes that replaying faster than the natural arrival rate
// creates artificial bursts (§3.2); tests use this to demonstrate it.
func (n *NIC) SetReplayGap(d sim.Time) {
	if d < 0 {
		d = 0
	}
	n.replayGap = d
}

// Wire is a unidirectional segment with fixed propagation delay that
// carries one NIC's packets to a fixed port or, as a switch Ingress, to
// the port the switch's address table picks. Bandwidth is enforced by
// the sending NIC (or delay-node pipe), not the wire.
type Wire struct {
	sim   *sim.Simulator
	delay sim.Time
	dst   Port
	sw    *Switch // non-nil for a switch ingress
	// inflight holds packets propagating, oldest first (see fifo).
	inflight fifo[hop]
	arriveFn func()
}

// NewWire creates a wire to dst with the given one-way propagation delay.
func NewWire(s *sim.Simulator, delay sim.Time, dst Port) *Wire {
	w := &Wire{sim: s, delay: delay, dst: dst}
	w.arriveFn = w.arrive
	return w
}

// carry queues pkt, which leaves its NIC's transmitter at exit, to
// arrive at the far end one delay later.
func (w *Wire) carry(pkt *Packet, exit sim.Time) {
	to := w.dst
	if w.sw != nil {
		p, ok := w.sw.ports[pkt.Dst]
		if !ok {
			w.sw.Unknown++
			return
		}
		to = p
	}
	w.inflight.push(hop{pkt, to})
	w.sim.DoAt(exit+w.delay, "wire", w.arriveFn)
}

func (w *Wire) arrive() {
	h := w.inflight.pop()
	if w.sw != nil {
		w.sw.Forwarded++
	}
	h.to.Accept(h.pkt)
}

// Switch is a store-and-forward L2 switch: packets are forwarded to the
// port registered for their destination address after a fixed forwarding
// latency. Unknown destinations are dropped (experiments are closed
// worlds; there is no flooding). Each NIC enters the switch through an
// Ingress of its own.
type Switch struct {
	sim     *sim.Simulator
	latency sim.Time
	ports   map[Addr]Port

	Forwarded uint64
	Unknown   uint64
}

// NewSwitch creates a switch with the given per-packet forwarding latency.
func NewSwitch(s *sim.Simulator, latency sim.Time) *Switch {
	return &Switch{sim: s, latency: latency, ports: make(map[Addr]Port)}
}

// Connect registers the port handling traffic addressed to addr.
func (sw *Switch) Connect(addr Addr, p Port) { sw.ports[addr] = p }

// Ingress returns a new segment into the switch for one NIC to attach
// or route through: the forwarding latency is its delay, and the
// address table picks each packet's far end when it is sent.
func (sw *Switch) Ingress() *Wire {
	w := NewWire(sw.sim, sw.latency, nil)
	w.sw = sw
	return w
}

// hop is a packet on its way to a port.
type hop struct {
	pkt *Packet
	to  Port
}

// fifo queues the hops one wire has scheduled to leave it, or the
// packets a NIC replays, oldest first. A wire has one producer and a
// fixed delay, so its exit times never decrease, and the simulator fires
// equal times in scheduling order: one cached callback per wire always
// completes the head.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(h T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Slide the live entries down instead of growing past the
		// popped prefix.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, h)
}

func (q *fifo[T]) pop() T {
	h := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return h
}
