package dummynet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"emucheck/internal/sim"
	"emucheck/internal/simnet"
)

// twoStagePipe is the two-stage pipe the one-event Pipe replaced, kept
// as a test oracle: a router queue whose head runs the bandwidth stage
// on a timer, then a delay line with one timer per packet — two events
// per packet. TestPipeMatchesTwoStageOracle holds Pipe to it.
type twoStagePipe struct {
	name string
	sim  *sim.Simulator
	out  simnet.Port

	Bandwidth simnet.Bitrate
	Delay     sim.Time
	PLR       float64
	Slots     int

	queue   []*simnet.Packet
	headTx  sim.Timer
	headEnd sim.Time
	line    []*oracleFlight

	frozen   bool
	frozeAt  sim.Time
	headLeft sim.Time
	rng      sim.Stream

	Enqueued, Emitted, Dropped, PLRDrops uint64
}

type oracleFlight struct {
	pkt  *simnet.Packet
	emit sim.Time
	tm   sim.Timer
}

func newTwoStagePipe(s *sim.Simulator, name string, bw simnet.Bitrate, delay sim.Time, out simnet.Port) *twoStagePipe {
	p := &twoStagePipe{name: name, sim: s, out: out, Bandwidth: bw, Delay: delay, Slots: DefaultQueueSlots,
		rng: s.Stream("pipe", name)}
	s.InitTimer(&p.headTx, name+".tx", p.finishHead)
	return p
}

func (p *twoStagePipe) QueueLen() int { return len(p.queue) }
func (p *twoStagePipe) InFlight() int { return len(p.line) }

func (p *twoStagePipe) Accept(pkt *simnet.Packet) {
	if p.frozen {
		p.Enqueued++
		p.queue = append(p.queue, pkt)
		return
	}
	if p.PLR > 0 && p.rng.Float64() < p.PLR {
		p.PLRDrops++
		return
	}
	if len(p.queue) >= p.Slots {
		p.Dropped++
		return
	}
	p.Enqueued++
	p.queue = append(p.queue, pkt)
	if len(p.queue) == 1 {
		p.startHead()
	}
}

func (p *twoStagePipe) startHead() {
	if len(p.queue) == 0 || p.frozen {
		return
	}
	p.headEnd = p.sim.Now() + p.Bandwidth.TxTime(p.queue[0].Size)
	p.headTx.Schedule(p.headEnd)
}

func (p *twoStagePipe) finishHead() {
	pkt := p.queue[0]
	p.queue = p.queue[1:]
	p.enterLine(pkt, p.sim.Now()+p.Delay).tm.Schedule(p.sim.Now() + p.Delay)
	p.startHead()
}

func (p *twoStagePipe) enterLine(pkt *simnet.Packet, emit sim.Time) *oracleFlight {
	fl := &oracleFlight{pkt: pkt, emit: emit}
	p.sim.InitTimer(&fl.tm, p.name+".emit", func() { p.emit(fl) })
	p.line = append(p.line, fl)
	return fl
}

func (p *twoStagePipe) emit(fl *oracleFlight) {
	for i, x := range p.line {
		if x == fl {
			p.line = append(p.line[:i:i], p.line[i+1:]...)
			break
		}
	}
	p.Emitted++
	p.out.Accept(fl.pkt)
}

func (p *twoStagePipe) Freeze() {
	if p.frozen {
		return
	}
	p.frozen = true
	p.frozeAt = p.sim.Now()
	p.headLeft = -1
	if p.headTx.Pending() {
		p.headLeft = p.headEnd - p.sim.Now()
		p.headTx.Stop()
	}
	for _, fl := range p.line {
		fl.tm.Stop()
	}
}

func (p *twoStagePipe) Thaw() {
	if !p.frozen {
		return
	}
	p.frozen = false
	now := p.sim.Now()
	for _, fl := range p.line {
		fl.emit = now + max(fl.emit-p.frozeAt, 0)
		fl.tm.Schedule(fl.emit)
	}
	if p.headLeft >= 0 && len(p.queue) > 0 {
		p.headEnd = now + p.headLeft
		p.headTx.Schedule(p.headEnd)
	} else {
		p.startHead()
	}
	p.headLeft = -1
}

func (p *twoStagePipe) Serialize() (*PipeState, error) {
	if !p.frozen {
		return nil, fmt.Errorf("serialize of running pipe %s", p.name)
	}
	st := &PipeState{
		Name: p.name, Bandwidth: p.Bandwidth, Delay: p.Delay, PLR: p.PLR, Slots: p.Slots,
		HeadTxLeft: p.headLeft,
		StatsEnq:   p.Enqueued, StatsEmit: p.Emitted, StatsDrop: p.Dropped, StatsPLRDrp: p.PLRDrops,
	}
	for _, pkt := range p.queue {
		st.Queue = append(st.Queue, PacketState{Packet: pkt.Clone()})
	}
	for _, fl := range p.line {
		st.DelayLine = append(st.DelayLine, PacketState{Packet: fl.pkt.Clone(), RemainingDelay: fl.emit - p.frozeAt})
	}
	return st, nil
}

func (p *twoStagePipe) Restore(st *PipeState) {
	p.Freeze()
	p.Bandwidth, p.Delay, p.PLR, p.Slots = st.Bandwidth, st.Delay, st.PLR, st.Slots
	p.Enqueued, p.Emitted, p.Dropped, p.PLRDrops = st.StatsEnq, st.StatsEmit, st.StatsDrop, st.StatsPLRDrp
	p.queue = nil
	for _, q := range st.Queue {
		p.queue = append(p.queue, q.Packet.Clone())
	}
	p.line = nil
	p.frozeAt = p.sim.Now()
	for _, d := range st.DelayLine {
		p.enterLine(d.Packet.Clone(), p.frozeAt+d.RemainingDelay)
	}
	p.headLeft = st.HeadTxLeft
}

// shaper is what the oracle comparison drives on both pipes.
type shaper interface {
	simnet.Port
	Freeze()
	Thaw()
	Serialize() (*PipeState, error)
	Restore(*PipeState)
	QueueLen() int
	InFlight() int
}

func counters(p shaper) [4]uint64 {
	switch p := p.(type) {
	case *Pipe:
		return [4]uint64{p.Enqueued, p.Emitted, p.Dropped, p.PLRDrops}
	case *twoStagePipe:
		return [4]uint64{p.Enqueued, p.Emitted, p.Dropped, p.PLRDrops}
	}
	panic("unknown shaper")
}

// emission is one packet leaving a pipe.
type emission struct {
	at sim.Time
	id uint64
}

type recorder struct {
	s   *sim.Simulator
	out []emission
}

func (r *recorder) Accept(pkt *simnet.Packet) { r.out = append(r.out, emission{r.s.Now(), pkt.ID}) }

// oracleAction is one step of the seeded schedule, applied to both pipes
// at the same simulated time.
type oracleAction struct {
	at   sim.Time
	kind string // accept | freeze | restore | thaw
	id   uint64
	size int
}

// oracleSchedule draws accepts of mixed sizes at random nanoseconds,
// with bursts of 60 at one instant (past the 50 slots), and four
// checkpoint cycles: freeze and serialize, an in-place restore in every
// other cycle, and thaw, with accepts landing on the frozen pipe.
func oracleSchedule(seed int64) []oracleAction {
	r := rand.New(rand.NewSource(seed))
	var acts []oracleAction
	id := uint64(0)
	accept := func(at sim.Time) {
		id++
		acts = append(acts, oracleAction{at: at, kind: "accept", id: id, size: 64 + r.Intn(1437)})
	}
	for i := 0; i < 600; i++ {
		accept(sim.Time(r.Int63n(int64(400 * sim.Millisecond))))
	}
	for b := 0; b < 3; b++ {
		at := sim.Time(r.Int63n(int64(400 * sim.Millisecond)))
		for i := 0; i < 60; i++ {
			accept(at)
		}
	}
	for c := 0; c < 4; c++ {
		at := sim.Time(c)*100*sim.Millisecond + sim.Time(r.Int63n(int64(60*sim.Millisecond)))
		acts = append(acts, oracleAction{at: at, kind: "freeze"})
		if c%2 == 1 {
			acts = append(acts, oracleAction{at: at + sim.Time(r.Int63n(int64(10*sim.Millisecond))), kind: "restore"})
		}
		acts = append(acts, oracleAction{at: at + 10*sim.Millisecond + sim.Time(r.Int63n(int64(20*sim.Millisecond))), kind: "thaw"})
	}
	return acts
}

// runOracle drives one pipe through the schedule and returns its
// emissions, the state captured at each freeze, and the counters and
// occupancy seen after each action.
func runOracle(acts []oracleAction, build func(*sim.Simulator, simnet.Port) shaper) ([]emission, []*PipeState, []string) {
	s := sim.New(7)
	rec := &recorder{s: s}
	p := build(s, rec)
	var states []*PipeState
	var trace []string
	for _, a := range acts {
		a := a
		s.At(a.at, "oracle."+a.kind, func() {
			switch a.kind {
			case "accept":
				p.Accept(&simnet.Packet{ID: a.id, Size: a.size})
			case "freeze":
				p.Freeze()
				st, err := p.Serialize()
				if err != nil {
					panic(err)
				}
				states = append(states, st)
			case "restore":
				p.Restore(states[len(states)-1])
			case "thaw":
				p.Thaw()
			}
			trace = append(trace, fmt.Sprintf("%v %s %d: queue %d line %d counters %v",
				s.Now(), a.kind, a.id, p.QueueLen(), p.InFlight(), counters(p)))
		})
	}
	s.Run()
	trace = append(trace, fmt.Sprintf("end: counters %v", counters(p)))
	return rec.out, states, trace
}

// TestPipeMatchesTwoStageOracle drives the one-event Pipe and the
// two-stage oracle through four seeded schedules — mixed sizes, bursts
// past the router queue, 10% PLR, freeze/serialize/restore/thaw with
// packets transmitting and in the delay line — and requires the same
// emissions to the nanosecond, the same counters and occupancy after
// every step, and identical PipeStates.
func TestPipeMatchesTwoStageOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		acts := oracleSchedule(seed)
		bw, delay := 10*simnet.Mbps, 7*sim.Millisecond
		gotOut, gotStates, gotTrace := runOracle(acts, func(s *sim.Simulator, out simnet.Port) shaper {
			p := NewPipe(s, "p", bw, delay, out)
			p.PLR = 0.1
			return p
		})
		wantOut, wantStates, wantTrace := runOracle(acts, func(s *sim.Simulator, out simnet.Port) shaper {
			p := newTwoStagePipe(s, "p", bw, delay, out)
			p.PLR = 0.1
			return p
		})
		if len(wantOut) < 400 {
			t.Fatalf("seed %d: oracle emitted only %d packets", seed, len(wantOut))
		}
		for i := range wantTrace {
			if i >= len(gotTrace) || gotTrace[i] != wantTrace[i] {
				got := "<missing>"
				if i < len(gotTrace) {
					got = gotTrace[i]
				}
				t.Fatalf("seed %d: step %d\n got  %s\n want %s", seed, i, got, wantTrace[i])
			}
		}
		if !reflect.DeepEqual(gotOut, wantOut) {
			for i := range wantOut {
				if i >= len(gotOut) || gotOut[i] != wantOut[i] {
					t.Fatalf("seed %d: emission %d differs: got %v, want %v", seed, i, gotOut[i:min(i+1, len(gotOut))], wantOut[i])
				}
			}
			t.Fatalf("seed %d: %d extra emissions", seed, len(gotOut)-len(wantOut))
		}
		if !reflect.DeepEqual(gotStates, wantStates) {
			t.Fatalf("seed %d: captured PipeStates differ", seed)
		}
		var inLine, inQueue, transmitting int
		for _, st := range wantStates {
			inLine += len(st.DelayLine)
			inQueue += len(st.Queue)
			if st.HeadTxLeft > 0 {
				transmitting++
			}
		}
		last := wantStates[len(wantStates)-1]
		if inLine == 0 || inQueue == 0 || transmitting == 0 || last.StatsPLRDrp == 0 || last.StatsDrop == 0 {
			t.Fatalf("seed %d: schedule exercises too little: line %d, queue %d, transmitting %d, plr drops %d, full drops %d",
				seed, inLine, inQueue, transmitting, last.StatsPLRDrp, last.StatsDrop)
		}
	}
}
