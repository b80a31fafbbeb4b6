// Package core implements the paper's primary contribution: a
// transparent, coordinated checkpoint of an entire closed distributed
// system (§4).
//
// A Coordinator drives checkpoint epochs over the publish–subscribe
// notification bus on the control network. Two trigger modes are
// supported, as in §4.3:
//
//   - Scheduled ("checkpoint at time t"): the coordinator picks a global
//     time far enough ahead for notification propagation; every node
//     arms a local timer on its NTP-disciplined clock. The residual
//     suspend skew across nodes is bounded by clock-sync error (~200 µs
//     steady state), not by notification jitter.
//   - Event-driven ("checkpoint now"): nodes suspend on notification
//     arrival; skew is the control network's delivery jitter — an order
//     of magnitude worse, which is why the paper schedules.
//
// Each node's local save is Xen's live checkpoint behind the temporal
// firewall; delay nodes freeze and serialize their Dummynet state,
// capturing the bandwidth–delay product of every shaped link (§4.4).
// A barrier collects completions, then a scheduled "resume at R" brings
// the whole experiment back near-simultaneously so that resume skew is
// also sync-bounded (§3.2's observation that restart skew matters too).
//
// Epochs are two-phase and abortable. An epoch moves through an
// explicit state machine — announced → saving → committed | aborted —
// and only a fully-barriered epoch commits (to History, and from there
// to any lineage the caller maintains). A member whose local save
// fails, a delay node that cannot serialize, or a straggler that misses
// Options.SaveDeadline aborts the whole epoch instead: the abort is
// published on the bus, every member and delay node the epoch froze is
// thawed, and the caller receives a typed *EpochError. Nothing
// half-saved ever commits, and an abort never takes the process down —
// the caller retries with a fresh epoch number.
package core

import (
	"fmt"
	"strings"

	"emucheck/internal/dummynet"
	"emucheck/internal/notify"
	"emucheck/internal/ntpsim"
	"emucheck/internal/sim"
	"emucheck/internal/xen"
)

// Mode selects how a checkpoint is triggered.
type Mode int

// Trigger modes.
const (
	Scheduled Mode = iota
	EventDriven
)

func (m Mode) String() string {
	if m == Scheduled {
		return "scheduled"
	}
	return "event-driven"
}

// Phase is an epoch's position in the checkpoint state machine.
type Phase int

// Epoch phases. The legal transitions are
// announced → saving → committed | aborted (either pre-commit phase may
// abort; a committed epoch is final).
const (
	// PhaseIdle: no epoch in flight.
	PhaseIdle Phase = iota
	// PhaseAnnounced: the checkpoint notification is published; no
	// member has started its local save yet.
	PhaseAnnounced
	// PhaseSaving: at least one member's local save has begun.
	PhaseSaving
	// PhaseCommitted: every party barriered; the epoch's images are
	// complete and durable (for HoldResume epochs this happens at the
	// barrier; otherwise once every member has resumed).
	PhaseCommitted
	// PhaseAborted: the epoch failed; whatever it froze was thawed and
	// its images were discarded.
	PhaseAborted
)

func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseAnnounced:
		return "announced"
	case PhaseSaving:
		return "saving"
	case PhaseCommitted:
		return "committed"
	case PhaseAborted:
		return "aborted"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// EpochError is the typed failure of one checkpoint epoch: which epoch
// aborted, in which phase, and which member (or stragglers) sank it.
// An aborted epoch never commits; retrying gets a fresh epoch number.
type EpochError struct {
	Epoch int
	// Phase names the protocol step that failed: "save" (a member's
	// local save or a delay-node serialize errored), "barrier" (the
	// save deadline expired with stragglers outstanding), "resume" (a
	// member could not be restarted), or the crash layer's free-form
	// label for externally forced aborts.
	Phase string
	// Node is the offending member, when one member is to blame.
	Node string
	// Stragglers lists the parties missing at the barrier when the save
	// deadline expired.
	Stragglers []string
	Reason     string
}

func (e *EpochError) Error() string {
	s := fmt.Sprintf("core: epoch %d aborted in %s phase", e.Epoch, e.Phase)
	if e.Node != "" {
		s += " on " + e.Node
	}
	if len(e.Stragglers) > 0 {
		s += " (stragglers: " + strings.Join(e.Stragglers, ", ") + ")"
	}
	if e.Reason != "" {
		s += ": " + e.Reason
	}
	return s
}

// Options tunes one distributed checkpoint.
type Options struct {
	Mode Mode
	// Lead is how far ahead a scheduled checkpoint is placed; it must
	// exceed worst-case notification delivery. Default 50 ms.
	Lead sim.Time
	// ResumeLead is the scheduling margin for the coordinated resume.
	ResumeLead sim.Time
	// SaveDeadline bounds the save phase: if the barrier has not
	// collected every party this long after the suspend target (or
	// after the announcement, for event-driven epochs), the epoch
	// aborts, thawing already-frozen members. This is how a crashed
	// node or a lost checkpoint notification surfaces as a clean abort
	// instead of a hang. Zero disables straggler detection.
	SaveDeadline sim.Time
	// Incremental saves only pages dirtied since the last checkpoint.
	Incremental bool
	// Target selects the image destination (scratch disk by default).
	Target xen.SaveTarget
	// HoldResume leaves the experiment frozen after the barrier: the
	// done callback fires with all nodes saved and suspended, and the
	// caller must later call ResumeHeld. Stateful swap-out uses this —
	// the "resume" happens at the next swap-in, possibly much later.
	HoldResume bool
	// SkipDelayNodes disables the §4.4 network-core capture, leaving
	// delay nodes running while endpoints freeze. The bandwidth–delay
	// product then drains into endpoint replay logs and re-emerges as a
	// burst at resume — the anomaly the paper's design avoids. Exists
	// for the ablation benchmark; never enable it in real use.
	SkipDelayNodes bool
}

func (o *Options) defaults() {
	if o.Lead <= 0 {
		o.Lead = 50 * sim.Millisecond
	}
	if o.ResumeLead <= 0 {
		// Must exceed worst-case clock error early in NTP convergence so
		// no node's local trigger lands in the past.
		o.ResumeLead = 50 * sim.Millisecond
	}
}

// Result describes one completed distributed checkpoint.
type Result struct {
	Epoch       int
	Mode        Mode
	ScheduledAt sim.Time // global target time (0 for event-driven)
	Images      []*xen.Image
	DelayStates []*dummynet.State

	// SuspendSkew is the spread of firewall-engage instants across
	// nodes — the transparency bound for the network (§3.2).
	SuspendSkew sim.Time
	// ResumeSkew is the spread of resume instants.
	ResumeSkew  sim.Time
	CompletedAt sim.Time
	// TotalBytes is the full image footprint of the epoch.
	TotalBytes int64
}

// MaxDowntime reports the longest per-node real downtime.
func (r *Result) MaxDowntime() sim.Time {
	var m sim.Time
	for _, img := range r.Images {
		if img.Downtime > m {
			m = img.Downtime
		}
	}
	return m
}

// Member is one checkpointed endpoint (an experiment node).
type Member struct {
	Name string
	HV   *xen.Hypervisor
}

// Coordinator orchestrates distributed checkpoints of a fixed set of
// members and delay nodes.
type Coordinator struct {
	s     *sim.Simulator
	bus   *notify.Bus
	ntp   *ntpsim.Sync
	nodes []*Member
	dns   []*dummynet.DelayNode

	// Scope names the experiment this coordinator serves. Notifications
	// carry it, and member daemons ignore messages scoped to other
	// experiments — several coordinators can share one control LAN.
	Scope string

	// rng draws the control-LAN hops the coordinator signals outside
	// the bus's publish path.
	rng sim.Stream

	// OnPhase, if set, observes every epoch phase transition — the
	// hook fault injection uses to act "during save", and tests use to
	// trace the state machine.
	OnPhase func(epoch int, ph Phase)

	// Aborted counts epochs that ended in abort; LastAbort is the most
	// recent abort's typed error.
	Aborted   int
	LastAbort *EpochError

	epochSeq int
	current  *epoch
	cancels  []func()
	dead     bool

	// History holds every committed checkpoint, newest last — the
	// linear spine that time travel branches from. Aborted epochs never
	// appear here.
	History []*Result
}

// epoch is one checkpoint epoch moving through the state machine.
type epoch struct {
	n       int
	phase   Phase
	opts    Options
	result  *Result
	barrier *notify.Barrier
	resumed *notify.Barrier
	done    func(*Result, error)

	deadline  *sim.Event
	frozenDNs []*dummynet.DelayNode

	suspendTimes []sim.Time
	resumeTimes  []sim.Time
}

// NewCoordinator wires a coordinator to its members with the anonymous
// scope: its daemons hear every notification on the control LAN (the
// single-experiment case). Every member's clock must already be
// NTP-disciplined via y.Start.
func NewCoordinator(s *sim.Simulator, bus *notify.Bus, y *ntpsim.Sync, members []*Member, delayNodes []*dummynet.DelayNode) *Coordinator {
	return NewScopedCoordinator(s, bus, y, "", members, delayNodes)
}

// NewScopedCoordinator wires a coordinator whose daemons subscribe
// scoped to one experiment's notifications: on a multi-tenant testbed
// the bus then fans a checkpoint publish out to this experiment's
// members only, instead of every daemon on the shared LAN. The
// handler-level scope filters stay as defense in depth.
func NewScopedCoordinator(s *sim.Simulator, bus *notify.Bus, y *ntpsim.Sync, scope string, members []*Member, delayNodes []*dummynet.DelayNode) *Coordinator {
	c := &Coordinator{s: s, bus: bus, ntp: y, nodes: members, dns: delayNodes, Scope: scope, rng: s.Stream("core", scope)}
	for _, m := range members {
		m := m
		c.cancels = append(c.cancels,
			bus.SubscribeScoped(notify.TopicCheckpoint, scope, m.Name, func(msg *notify.Msg) { c.onCheckpoint(m, msg) }),
			bus.SubscribeScoped(notify.TopicResume, scope, m.Name, func(msg *notify.Msg) { c.onResume(m, msg) }))
	}
	for _, d := range delayNodes {
		d := d
		c.cancels = append(c.cancels,
			bus.SubscribeScoped(notify.TopicCheckpoint, scope, d.Name, func(msg *notify.Msg) { c.onCheckpointDelay(d, msg) }),
			bus.SubscribeScoped(notify.TopicResume, scope, d.Name, func(msg *notify.Msg) { c.onResumeDelay(d, msg) }))
	}
	return c
}

// Shutdown unsubscribes the coordinator's daemons from the control LAN
// and refuses further checkpoints. A torn-down experiment's coordinator
// must go deaf: its successor may reuse the same scope, and epochs
// restart — a stale listener could otherwise fire saves on halted
// guests.
func (c *Coordinator) Shutdown() {
	c.dead = true
	for _, cancel := range c.cancels {
		cancel()
	}
	c.cancels = nil
	if c.current != nil && c.current.deadline != nil {
		c.s.Cancel(c.current.deadline)
	}
	c.current = nil
}

// Epoch reports the number of checkpoints initiated.
func (c *Coordinator) Epoch() int { return c.epochSeq }

// Busy reports whether a checkpoint epoch is still in flight.
func (c *Coordinator) Busy() bool { return c.current != nil }

// Phase reports the in-flight epoch's FSM position (PhaseIdle if none).
func (c *Coordinator) Phase() Phase {
	if c.current == nil {
		return PhaseIdle
	}
	return c.current.phase
}

// setPhase advances the epoch's FSM position and fires the observation
// hook.
func (c *Coordinator) setPhase(ep *epoch, p Phase) {
	if ep.phase == p {
		return
	}
	ep.phase = p
	if c.OnPhase != nil {
		c.OnPhase(ep.n, p)
	}
}

// busHop draws one control-LAN delivery delay for coordinator-driven
// daemon signalling outside the publish path.
func (c *Coordinator) busHop() sim.Time {
	return c.bus.BaseLatency + c.rng.Jitter(c.bus.JitterMax)
}

// TriggerFromNode initiates an event-driven checkpoint *from a member
// node* — the §4.3 use case where a break- or watch-point inside the
// experiment fires ("the checkpoint system should be able to trigger a
// checkpoint immediately in response to any system event"). The node's
// dom0 daemon publishes "checkpoint now" on the bus; the notification
// reaches the coordinator and every peer with control-network latency,
// so the resulting skew is jitter-bound, as the paper cautions.
func (c *Coordinator) TriggerFromNode(nodeName string, done func(*Result, error)) error {
	found := false
	for _, m := range c.nodes {
		if m.Name == nodeName {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("core: no member %q", nodeName)
	}
	if c.current != nil {
		return fmt.Errorf("core: checkpoint %d still in flight", c.epochSeq)
	}
	// One bus hop from the triggering node to the coordinator daemon,
	// then the normal event-driven fan-out.
	hop := c.rng.Jitter(sim.Millisecond) + 200*sim.Microsecond
	c.s.DoAfter(hop, "core.node-trigger", func() {
		if c.current != nil {
			return // someone else got there first; their epoch covers us
		}
		if err := c.Checkpoint(Options{Mode: EventDriven, Incremental: true}, done); err != nil && done != nil {
			done(nil, err)
		}
	})
	return nil
}

// Checkpoint initiates one distributed checkpoint epoch. done receives
// the committed result once every member has resumed (or, for
// HoldResume, once the barrier completes) — or a *EpochError if the
// epoch aborted. Only one epoch may be in flight at a time.
func (c *Coordinator) Checkpoint(opts Options, done func(*Result, error)) error {
	if c.dead {
		return fmt.Errorf("core: coordinator is shut down")
	}
	if c.current != nil {
		return fmt.Errorf("core: checkpoint %d still in flight", c.epochSeq)
	}
	opts.defaults()
	c.epochSeq++
	parties := len(c.nodes) + len(c.dns)
	r := &Result{Epoch: c.epochSeq, Mode: opts.Mode}
	ep := &epoch{n: c.epochSeq, phase: PhaseIdle, opts: opts, result: r, done: done}
	ep.barrier = notify.NewBarrier(parties, func() { c.allSaved(ep) })
	ep.resumed = notify.NewBarrier(len(c.nodes), func() { c.allResumed(ep) })
	c.current = ep

	var at, lead sim.Time
	if opts.Mode == Scheduled {
		lead = opts.Lead
		at = c.s.Now() + lead
		r.ScheduledAt = at
	}
	if opts.SaveDeadline > 0 {
		// The save barrier must complete within SaveDeadline of the
		// suspend target; past it, stragglers abort the epoch.
		ep.deadline = c.s.After(lead+opts.SaveDeadline, "core.save-deadline", func() {
			c.onDeadline(ep)
		})
	}
	c.setPhase(ep, PhaseAnnounced)
	c.bus.Publish(&notify.Msg{Topic: notify.TopicCheckpoint, From: "coordinator", Scope: c.Scope, At: at, Epoch: ep.n})
	return nil
}

// onDeadline fires when the save deadline expires: if any party is
// still missing at the barrier, the epoch aborts with the stragglers
// named.
func (c *Coordinator) onDeadline(ep *epoch) {
	if c.dead || ep.phase == PhaseCommitted || ep.phase == PhaseAborted || ep.barrier.Done() {
		return
	}
	var stragglers []string
	for _, m := range c.nodes {
		if !ep.barrier.Has(m.Name) {
			stragglers = append(stragglers, m.Name)
		}
	}
	for _, d := range c.dns {
		if !ep.barrier.Has(d.Name) {
			stragglers = append(stragglers, d.Name)
		}
	}
	c.abort(ep, &EpochError{
		Epoch: ep.n, Phase: "barrier", Stragglers: stragglers,
		Reason: fmt.Sprintf("save deadline expired with %d/%d arrived",
			ep.barrier.Arrived(), len(c.nodes)+len(c.dns)),
	})
}

// abort fails the epoch: the deadline is cancelled, the typed error is
// recorded, the abort is published on the bus, everything the epoch
// froze is thawed (each daemon one control-LAN hop away), and the
// caller receives the error. The thaw fan-out is modeled as reliable —
// the coordinator re-sends aborts until acked — so the model delivers
// the end state directly rather than risking a permanently frozen
// member on a lossy LAN. Crashed members are skipped: the crash is the
// abort's likely cause, and recovery owns them now.
func (c *Coordinator) abort(ep *epoch, err *EpochError) {
	if ep.phase == PhaseCommitted || ep.phase == PhaseAborted {
		return
	}
	c.setPhase(ep, PhaseAborted)
	c.Aborted++
	c.LastAbort = err
	if ep.deadline != nil {
		c.s.Cancel(ep.deadline)
	}
	if c.current == ep {
		c.current = nil
	}
	c.bus.Publish(&notify.Msg{Topic: notify.TopicAbort, From: "coordinator", Scope: c.Scope, Epoch: ep.n, Data: err})
	for _, m := range c.nodes {
		hv := m.HV
		c.s.DoAfter(c.busHop(), "core.abort-thaw", func() { thawMember(hv) })
	}
	for _, d := range ep.frozenDNs {
		d := d
		c.s.DoAfter(c.busHop(), "core.abort-thaw-dn", func() {
			if c.allCrashed() {
				// The whole tenant died (the crash is what aborted this
				// epoch): its network core stays frozen for recovery.
				return
			}
			d.Thaw()
		})
	}
	if ep.done != nil {
		ep.done(nil, err)
	}
}

// allCrashed reports whether every member has fail-stopped — the
// tenant-is-dead test the abort thaw consults so a crashed
// experiment's delay nodes stay frozen for recovery.
func (c *Coordinator) allCrashed() bool {
	if len(c.nodes) == 0 {
		return false
	}
	for _, m := range c.nodes {
		if !m.HV.Crashed() {
			return false
		}
	}
	return true
}

// thawMember returns one member to service after an abort: a save in
// flight is cancelled (resuming the guest if it had already frozen); a
// completed save left the guest suspended and is resumed directly.
func thawMember(hv *xen.Hypervisor) {
	if hv.Crashed() {
		return
	}
	if hv.Saving() {
		hv.CancelSave()
		return
	}
	if hv.K.Suspended() {
		_ = hv.Resume(nil)
	}
}

// AbortInFlight aborts the epoch currently in flight, if any — the
// testbed's crash path uses it when a member fail-stops mid-epoch. A
// held epoch has already committed (its barrier completed) and is not
// aborted. Reports whether an epoch was aborted.
func (c *Coordinator) AbortInFlight(reason string) bool {
	ep := c.current
	if ep == nil || ep.phase == PhaseCommitted || ep.phase == PhaseAborted {
		return false
	}
	c.abort(ep, &EpochError{Epoch: ep.n, Phase: ep.phase.String(), Reason: reason})
	return true
}

// onCheckpoint runs on a member's dom0 daemon when the notification
// arrives. It starts the live save with the proper suspend deadline.
func (c *Coordinator) onCheckpoint(m *Member, msg *notify.Msg) {
	ep := c.current
	if ep == nil || msg.Scope != c.Scope || msg.Epoch != ep.n || ep.phase == PhaseAborted {
		return
	}
	var suspendAt sim.Time
	if msg.At > 0 {
		suspendAt = c.ntp.LocalTrigger(m.Name, msg.At)
	} else {
		suspendAt = c.s.Now() + sim.Microsecond // "checkpoint now"
	}
	c.setPhase(ep, PhaseSaving)
	err := m.HV.Save(xen.SaveOptions{
		Target:      ep.opts.Target,
		SuspendAt:   suspendAt,
		Incremental: ep.opts.Incremental,
		OnError: func(serr error) {
			// The save died after acceptance (the suspend raced a
			// concurrent freeze): abort rather than hang the barrier.
			if ep.phase != PhaseAborted && ep.phase != PhaseCommitted {
				c.abort(ep, &EpochError{Epoch: ep.n, Phase: "save", Node: m.Name, Reason: serr.Error()})
			}
		},
	}, func(img *xen.Image) {
		if ep.phase == PhaseAborted {
			// The epoch died while this save was finishing: discard the
			// image and thaw the member right away.
			thawMember(m.HV)
			return
		}
		ep.result.Images = append(ep.result.Images, img)
		ep.suspendTimes = append(ep.suspendTimes, img.SuspendedAt)
		ep.result.TotalBytes += img.MemoryBytes + img.DeviceBytes
		// Report completion on the bus (daemon -> coordinator).
		ep.barrier.Arrive(m.Name)
	})
	if err != nil {
		c.abort(ep, &EpochError{Epoch: ep.n, Phase: "save", Node: m.Name, Reason: err.Error()})
	}
}

// onCheckpointDelay freezes and serializes a delay node at its local
// trigger time.
func (c *Coordinator) onCheckpointDelay(d *dummynet.DelayNode, msg *notify.Msg) {
	ep := c.current
	if ep == nil || msg.Scope != c.Scope || msg.Epoch != ep.n || ep.phase == PhaseAborted {
		return
	}
	if ep.opts.SkipDelayNodes {
		// Ablation mode: the network core keeps running; its in-flight
		// packets drain into frozen endpoints' replay logs.
		ep.barrier.Arrive(d.Name)
		return
	}
	var at sim.Time
	if msg.At > 0 {
		at = c.ntp.LocalTrigger(d.Name, msg.At)
	} else {
		at = c.s.Now() + sim.Microsecond
	}
	delay := at - c.s.Now()
	c.s.DoAfter(delay, "core.freeze-delaynode", func() {
		if ep.phase == PhaseAborted {
			return // the epoch died before the local trigger
		}
		d.Freeze()
		ep.frozenDNs = append(ep.frozenDNs, d)
		st, err := d.Serialize()
		if err != nil {
			c.abort(ep, &EpochError{Epoch: ep.n, Phase: "save", Node: d.Name, Reason: err.Error()})
			return
		}
		ep.result.DelayStates = append(ep.result.DelayStates, st)
		ep.result.TotalBytes += int64(st.Bytes())
		ep.barrier.Arrive(d.Name)
	})
}

// allSaved fires when the barrier completes: the epoch is now fully
// barriered and will commit. Publish the scheduled resume, or park the
// frozen experiment if the caller asked to hold.
func (c *Coordinator) allSaved(ep *epoch) {
	if c.dead || ep.phase == PhaseAborted {
		// A save completing after teardown must not publish a resume:
		// the successor coordinator reuses this scope and epoch 1.
		return
	}
	if ep.deadline != nil {
		c.s.Cancel(ep.deadline)
	}
	if ep.opts.HoldResume {
		// A held epoch commits at the barrier: its images are complete
		// and durable; the resume happens at the next swap-in.
		ep.result.SuspendSkew = spread(ep.suspendTimes)
		ep.result.CompletedAt = c.s.Now()
		c.setPhase(ep, PhaseCommitted)
		c.History = append(c.History, ep.result)
		if ep.done != nil {
			ep.done(ep.result, nil)
		}
		return
	}
	at := c.s.Now() + ep.opts.ResumeLead
	c.bus.Publish(&notify.Msg{Topic: notify.TopicResume, From: "coordinator", Scope: c.Scope, At: at, Epoch: ep.n})
}

// Held reports whether a checkpoint is parked awaiting ResumeHeld.
func (c *Coordinator) Held() bool {
	return c.current != nil && c.current.opts.HoldResume && c.current.barrier.Done()
}

// DropHeld discards a held epoch without resuming through it — the
// crash-recovery path, where the guests restart from restored images
// rather than via the coordinated ResumeHeld. The epoch itself stays
// committed (its images are exactly the restore point); only the
// coordinator's in-flight slot clears, so new epochs and swap-outs can
// run on the recovered incarnation. Reports whether an epoch was held.
func (c *Coordinator) DropHeld() bool {
	if !c.Held() {
		return false
	}
	c.current = nil
	return true
}

// ResumeHeld resumes an experiment parked by a HoldResume checkpoint.
// after fires once every node is live again (or with an error if the
// coordinated resume failed).
func (c *Coordinator) ResumeHeld(after func(*Result, error)) error {
	ep := c.current
	if ep == nil || !ep.opts.HoldResume || !ep.barrier.Done() {
		return fmt.Errorf("core: nothing held")
	}
	ep.done = after
	at := c.s.Now() + ep.opts.ResumeLead
	c.bus.Publish(&notify.Msg{Topic: notify.TopicResume, From: "coordinator", Scope: c.Scope, At: at, Epoch: ep.n})
	return nil
}

func (c *Coordinator) onResume(m *Member, msg *notify.Msg) {
	ep := c.current
	if ep == nil || msg.Scope != c.Scope || msg.Epoch != ep.n || ep.phase == PhaseAborted {
		return
	}
	at := c.ntp.LocalTrigger(m.Name, msg.At)
	c.s.DoAfter(at-c.s.Now(), "core.resume", func() {
		if ep.phase == PhaseAborted {
			return // the abort path already thawed this member
		}
		err := m.HV.Resume(func() {
			ep.resumeTimes = append(ep.resumeTimes, c.s.Now())
			ep.resumed.Arrive(m.Name)
		})
		if err != nil {
			c.abort(ep, &EpochError{Epoch: ep.n, Phase: "resume", Node: m.Name, Reason: err.Error()})
		}
	})
}

func (c *Coordinator) onResumeDelay(d *dummynet.DelayNode, msg *notify.Msg) {
	ep := c.current
	if ep == nil || msg.Scope != c.Scope || msg.Epoch != ep.n || ep.phase == PhaseAborted {
		return
	}
	if ep.opts.SkipDelayNodes {
		return // never frozen
	}
	at := c.ntp.LocalTrigger(d.Name, msg.At)
	c.s.DoAfter(at-c.s.Now(), "core.thaw-delaynode", func() {
		if ep.phase != PhaseAborted {
			d.Thaw()
		}
	})
}

func (c *Coordinator) allResumed(ep *epoch) {
	if c.dead || ep.phase == PhaseAborted {
		return
	}
	ep.result.ResumeSkew = spread(ep.resumeTimes)
	ep.result.CompletedAt = c.s.Now()
	if !ep.opts.HoldResume {
		// Held epochs were committed and recorded at the barrier.
		ep.result.SuspendSkew = spread(ep.suspendTimes)
		c.setPhase(ep, PhaseCommitted)
		c.History = append(c.History, ep.result)
	}
	c.current = nil
	if ep.done != nil {
		ep.done(ep.result, nil)
	}
}

// ThawDelayNodes unfreezes every delay node — the crash-recovery path
// uses it after re-staging a crashed experiment's state, outside any
// epoch's resume protocol.
func (c *Coordinator) ThawDelayNodes() {
	for _, d := range c.dns {
		d.Thaw()
	}
}

func spread(ts []sim.Time) sim.Time {
	if len(ts) == 0 {
		return 0
	}
	lo, hi := ts[0], ts[0]
	for _, t := range ts[1:] {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return hi - lo
}

// PeriodicCheckpointer repeatedly checkpoints an experiment at a fixed
// interval — the capture loop of the time-travel system (§6) and the
// driver for the paper's transparency experiments, which checkpoint
// every 5 seconds. An aborted epoch commits nothing; the loop retries
// at the next interval with a fresh epoch number.
type PeriodicCheckpointer struct {
	C        *Coordinator
	Interval sim.Time
	Opts     Options
	OnResult func(*Result)
	// OnAbort observes epochs that failed under the loop.
	OnAbort func(error)

	stopped bool
	count   int
	aborts  int
	limit   int
}

// Start begins checkpointing every interval until Stop (or until limit
// checkpoints if limit > 0). The first checkpoint fires one interval
// from now.
func (p *PeriodicCheckpointer) Start(limit int) {
	p.limit = limit
	p.stopped = false
	p.schedule()
}

func (p *PeriodicCheckpointer) schedule() {
	p.C.s.DoAfter(p.Interval, "periodic.ckpt", func() {
		if p.stopped || p.C.dead {
			return
		}
		err := p.C.Checkpoint(p.Opts, func(r *Result, cerr error) {
			if cerr != nil {
				p.aborts++
				if p.OnAbort != nil {
					p.OnAbort(cerr)
				}
				p.schedule()
				return
			}
			p.count++
			if p.OnResult != nil {
				p.OnResult(r)
			}
			if p.limit > 0 && p.count >= p.limit {
				p.stopped = true
				return
			}
			p.schedule()
		})
		if err != nil {
			// Previous epoch still draining; retry next interval.
			p.schedule()
		}
	})
}

// Stop halts the loop after the in-flight checkpoint, if any.
func (p *PeriodicCheckpointer) Stop() { p.stopped = true }

// Count reports completed checkpoints.
func (p *PeriodicCheckpointer) Count() int { return p.count }

// Aborts reports epochs that aborted under the loop.
func (p *PeriodicCheckpointer) Aborts() int { return p.aborts }
