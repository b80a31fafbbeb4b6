// Package dummynet models the FreeBSD Dummynet traffic-shaping subsystem
// that Emulab delay nodes run (Rizzo 1997, paper §2, §4.4).
//
// A Pipe shapes one direction of an emulated link: packets wait in a
// bounded FIFO "router queue", drain through a bandwidth stage (one
// packet transmitting at a time at the configured rate), and then sit in
// a delay line for the link's propagation delay before being emitted
// downstream. Both stages are exact functions of acceptance order, so
// Accept computes txEnd = max(now, previous txEnd) + tx and emission at
// txEnd + Delay, and arms one timer: one event per packet. A packet is
// in the router queue until txEnd and in the delay line after.
//
// The package implements the paper's delay-node checkpoint: a live,
// non-destructive serialization of the whole pipe hierarchy — every
// queued packet and every packet "in flight" inside a delay line with its
// remaining delay — plus freeze/resume that virtualizes time so the
// packets experience exactly the delay they were configured for, with the
// checkpoint interval edited out (§4.4).
package dummynet

import (
	"fmt"

	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// DefaultQueueSlots matches Dummynet's default 50-slot router queue.
const DefaultQueueSlots = 50

// entry is one accepted packet on its way through the pipe, emitted at
// emit by its own timer. Entries are pooled per pipe: an emitted entry
// goes back to the pipe's free list with its timer, so a packet crossing
// the pipe allocates nothing.
type entry struct {
	p     *Pipe
	pkt   *simnet.Packet
	txEnd sim.Time // when the bandwidth stage finishes the packet
	emit  sim.Time // txEnd + Delay; both in real simulation time
	tm    sim.Timer
}

func (e *entry) fire() { e.p.emit(e) }

// Pipe is one shaping stage: bandwidth + delay + loss + bounded queue.
type Pipe struct {
	name string
	sim  *sim.Simulator
	out  simnet.Port

	// Configuration, mirroring a `pipe config` in Dummynet.
	Bandwidth simnet.Bitrate // 0 means unlimited
	Delay     sim.Time
	PLR       float64 // packet loss rate in [0,1]
	Slots     int     // router queue capacity in packets

	// ents holds the packets inside in acceptance order: ents[:cur] is
	// the delay line (txEnd has passed) and ents[cur:] the router queue,
	// head transmitting. txEnd never decreases along it.
	ents []*entry
	cur  int
	free []*entry // emitted entries for reuse

	frozen   bool
	frozeAt  sim.Time
	headLeft sim.Time // remaining tx time of head packet at freeze

	rng sim.Stream // PLR draws

	// Statistics.
	Enqueued uint64
	Emitted  uint64
	Dropped  uint64 // queue-full drops
	PLRDrops uint64
}

// NewPipe creates a shaping pipe feeding out.
func NewPipe(s *sim.Simulator, name string, bw simnet.Bitrate, delay sim.Time, out simnet.Port) *Pipe {
	return &Pipe{
		name: name, sim: s, out: out,
		Bandwidth: bw, Delay: delay, Slots: DefaultQueueSlots,
		rng: s.Stream("pipe", name),
	}
}

// advance moves the queue/delay-line boundary past every packet whose
// transmission has ended. A frozen pipe's boundary stands still.
func (p *Pipe) advance() {
	if p.frozen {
		return
	}
	now := p.sim.Now()
	for p.cur < len(p.ents) && p.ents[p.cur].txEnd <= now {
		p.cur++
	}
}

// QueueLen reports packets waiting in (or transmitting from) the router
// queue.
func (p *Pipe) QueueLen() int {
	p.advance()
	return len(p.ents) - p.cur
}

// InFlight reports packets currently in the delay line — the
// bandwidth-delay product the paper's delay-node checkpoint captures.
func (p *Pipe) InFlight() int {
	p.advance()
	return p.cur
}

// Accept implements simnet.Port: a packet enters the router queue.
func (p *Pipe) Accept(pkt *simnet.Packet) {
	// A frozen pipe is checkpoint-quiesced, so it only sees packets
	// inside the skew window. It queues them all, without a PLR draw or
	// the slot limit (those drops would be the checkpoint's, not the
	// link's), and Thaw times them: captured network state, bounded by
	// the skew like an endpoint's replay log.
	if !p.frozen && p.PLR > 0 && p.rng.Float64() < p.PLR {
		p.PLRDrops++
		return
	}
	if !p.frozen && p.QueueLen() >= p.Slots {
		p.Dropped++
		return
	}
	p.Enqueued++
	start := p.sim.Now()
	if n := len(p.ents); n > 0 && p.ents[n-1].txEnd > start {
		start = p.ents[n-1].txEnd
	}
	e := p.entry(pkt)
	if !p.frozen {
		p.arm(e, start+p.Bandwidth.TxTime(pkt.Size))
	}
}

// arm schedules e's emission for a transmission ending at txEnd.
func (p *Pipe) arm(e *entry, txEnd sim.Time) {
	e.txEnd, e.emit = txEnd, txEnd+p.Delay
	e.tm.Schedule(e.emit)
}

// entry appends an unarmed entry for pkt, reusing an emitted one when
// the free list has it.
func (p *Pipe) entry(pkt *simnet.Packet) *entry {
	var e *entry
	if n := len(p.free); n > 0 {
		e = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		e = &entry{p: p}
		p.sim.InitTimer(&e.tm, p.name+".emit", e.fire)
	}
	e.pkt = pkt
	p.ents = append(p.ents, e)
	return e
}

// release returns an unarmed entry to the free list.
func (p *Pipe) release(e *entry) {
	e.pkt = nil
	p.free = append(p.free, e)
}

func (p *Pipe) emit(e *entry) {
	// The entry is in the delay line, almost always at its head.
	p.advance()
	for i, x := range p.ents[:p.cur] {
		if x == e {
			n := copy(p.ents[i:], p.ents[i+1:])
			p.ents[i+n] = nil
			p.ents = p.ents[:i+n]
			p.cur--
			break
		}
	}
	pkt := e.pkt
	p.release(e)
	p.Emitted++
	if p.out != nil {
		p.out.Accept(pkt)
	}
}

// Freeze suspends the pipe non-destructively: the bandwidth stage and all
// delay-line emissions are unhooked with their remaining times recorded.
// This is the "suspend Dummynet" step of the delay-node checkpoint.
func (p *Pipe) Freeze() {
	if p.frozen {
		return
	}
	p.advance()
	p.frozen = true
	p.frozeAt = p.sim.Now()
	p.headLeft = -1
	if p.cur < len(p.ents) {
		p.headLeft = p.ents[p.cur].txEnd - p.frozeAt
	}
	for _, e := range p.ents {
		e.tm.Stop()
	}
}

// Frozen reports whether the pipe is suspended.
func (p *Pipe) Frozen() bool { return p.frozen }

// Thaw resumes the pipe, virtualizing away the frozen interval: every
// packet resumes with exactly the remaining delay it had at freeze time,
// so the shaped link characteristics observed by the experiment are
// unchanged (§4.4 "resume execution by unblocking Dummynet and
// virtualizing time to account for the time spent in the checkpoint").
func (p *Pipe) Thaw() {
	if !p.frozen {
		return
	}
	p.frozen = false
	now := p.sim.Now()
	// Re-arm the delay line with remaining delays.
	for _, e := range p.ents[:p.cur] {
		e.emit = now + max(e.emit-p.frozeAt, 0)
		e.tm.Schedule(e.emit)
	}
	// Re-run the bandwidth stage: the head finishes its remaining
	// transmission, then each queued packet follows back to back.
	end := now
	for i, e := range p.ents[p.cur:] {
		if i == 0 && p.headLeft >= 0 {
			end += p.headLeft
		} else {
			end += p.Bandwidth.TxTime(e.pkt.Size)
		}
		p.arm(e, end)
	}
	p.headLeft = -1
}

// PacketState is one serialized packet with its shaping progress.
type PacketState struct {
	Packet         *simnet.Packet
	RemainingDelay sim.Time // for delay-line packets
}

// PipeState is the serialized form of a Pipe: configuration plus every
// queued and in-flight packet. It is what the delay-node checkpoint
// writes out (§4.4: "a hierarchy of pipes, router queues, and the packets
// queued in those pipes and queues").
type PipeState struct {
	Name        string
	Bandwidth   simnet.Bitrate
	Delay       sim.Time
	PLR         float64
	Slots       int
	Queue       []PacketState
	DelayLine   []PacketState
	HeadTxLeft  sim.Time // remaining bandwidth-stage time, -1 if idle
	StatsEnq    uint64
	StatsEmit   uint64
	StatsDrop   uint64
	StatsPLRDrp uint64
}

// Bytes reports an estimate of the serialized image size: packet wire
// bytes plus fixed metadata, used by swap-time accounting.
func (st *PipeState) Bytes() int {
	n := 128 // pipe header
	for _, q := range st.Queue {
		n += q.Packet.Size + 32
	}
	for _, d := range st.DelayLine {
		n += d.Packet.Size + 32
	}
	return n
}

// Serialize captures the pipe state. The pipe must be frozen: Dummynet is
// suspended before its state is walked, keeping the capture consistent.
func (p *Pipe) Serialize() (*PipeState, error) {
	if !p.frozen {
		return nil, fmt.Errorf("dummynet: serialize of running pipe %s", p.name)
	}
	st := &PipeState{
		Name: p.name, Bandwidth: p.Bandwidth, Delay: p.Delay, PLR: p.PLR, Slots: p.Slots,
		HeadTxLeft:  p.headLeft,
		StatsEnq:    p.Enqueued,
		StatsEmit:   p.Emitted,
		StatsDrop:   p.Dropped,
		StatsPLRDrp: p.PLRDrops,
	}
	for _, e := range p.ents[p.cur:] {
		st.Queue = append(st.Queue, PacketState{Packet: e.pkt.Clone()})
	}
	for _, e := range p.ents[:p.cur] {
		st.DelayLine = append(st.DelayLine, PacketState{
			Packet:         e.pkt.Clone(),
			RemainingDelay: e.emit - p.frozeAt,
		})
	}
	return st, nil
}

// Restore reconstructs the pipe from a serialized state. The pipe comes
// back frozen; Thaw resumes it with the captured remaining delays.
func (p *Pipe) Restore(st *PipeState) {
	p.Freeze()
	p.Bandwidth = st.Bandwidth
	p.Delay = st.Delay
	p.PLR = st.PLR
	p.Slots = st.Slots
	p.Enqueued = st.StatsEnq
	p.Emitted = st.StatsEmit
	p.Dropped = st.StatsDrop
	p.PLRDrops = st.StatsPLRDrp
	for _, e := range p.ents {
		p.release(e)
	}
	clear(p.ents)
	p.ents = p.ents[:0]
	p.frozeAt = p.sim.Now()
	for _, d := range st.DelayLine {
		e := p.entry(d.Packet.Clone())
		e.txEnd, e.emit = p.frozeAt, p.frozeAt+d.RemainingDelay
	}
	p.cur = len(p.ents)
	for _, q := range st.Queue {
		p.entry(q.Packet.Clone())
	}
	p.headLeft = st.HeadTxLeft
}

// DelayNode is an Emulab delay node interposed on one duplex link: one
// pipe per direction, plus the checkpoint entry points. The node is
// transparent to the experimental network (§2) — it only shapes.
type DelayNode struct {
	Name    string
	Forward *Pipe // A -> B
	Reverse *Pipe // B -> A
}

// NewDelayNode builds a delay node shaping a duplex link with symmetric
// bandwidth/delay. Outputs are attached later via AttachForward/Reverse.
func NewDelayNode(s *sim.Simulator, name string, bw simnet.Bitrate, delay sim.Time) *DelayNode {
	return &DelayNode{
		Name:    name,
		Forward: NewPipe(s, name+".fwd", bw, delay, nil),
		Reverse: NewPipe(s, name+".rev", bw, delay, nil),
	}
}

// AttachForward connects the A->B pipe output.
func (d *DelayNode) AttachForward(out simnet.Port) { d.Forward.out = out }

// AttachReverse connects the B->A pipe output.
func (d *DelayNode) AttachReverse(out simnet.Port) { d.Reverse.out = out }

// SetLoss configures symmetric packet loss.
func (d *DelayNode) SetLoss(plr float64) {
	d.Forward.PLR = plr
	d.Reverse.PLR = plr
}

// Freeze suspends both directions.
func (d *DelayNode) Freeze() {
	d.Forward.Freeze()
	d.Reverse.Freeze()
}

// Thaw resumes both directions.
func (d *DelayNode) Thaw() {
	d.Forward.Thaw()
	d.Reverse.Thaw()
}

// InFlight reports the total captured bandwidth-delay packets.
func (d *DelayNode) InFlight() int {
	return d.Forward.InFlight() + d.Reverse.InFlight() + d.Forward.QueueLen() + d.Reverse.QueueLen()
}

// State is a serialized delay node.
type State struct {
	Name    string
	Forward *PipeState
	Reverse *PipeState
}

// Bytes reports the serialized image size estimate.
func (s *State) Bytes() int { return s.Forward.Bytes() + s.Reverse.Bytes() }

// Serialize captures both pipes; the node must be frozen.
func (d *DelayNode) Serialize() (*State, error) {
	f, err := d.Forward.Serialize()
	if err != nil {
		return nil, err
	}
	r, err := d.Reverse.Serialize()
	if err != nil {
		return nil, err
	}
	return &State{Name: d.Name, Forward: f, Reverse: r}, nil
}

// Restore reconstructs both pipes from a serialized state; the node comes
// back frozen.
func (d *DelayNode) Restore(st *State) {
	d.Forward.Restore(st.Forward)
	d.Reverse.Restore(st.Reverse)
}
