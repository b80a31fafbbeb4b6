package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"emucheck/internal/sim"
)

// Span names: the benchmark's calls into each layer's public
// functions.
const (
	spSubmit     = "emucheck.Submit"
	spBranch     = "emucheck.Branch"
	spFinish     = "emucheck.Finish"
	spCheckpoint = "emucheck.CheckpointAsync"
	spRunFor     = "emucheck.RunFor"
	spPark       = "sched.Hooks.Park"
	spResume     = "sched.Hooks.Resume"
	spAudit      = "storage.ChainStore.Audit"
)

// Calls too frequent to keep one span each: they are kept as a count
// and a duration, charged as child time to the enclosing span.
const (
	fineUsleep = iota
	fineSend
	fineParkCost
	nFine
)

var fineNames = [nFine]string{"guest.Kernel.Usleep", "guest.Kernel.Send", "sched.Hooks.ParkCost"}

// span is one call into a layer: host time (ns since the tracer
// started), the enclosing span, the host time its children took, and
// the simulated clock at both ends.
type span struct {
	Name     string   `json:"name"`
	Parent   int32    `json:"parent"`
	Start    int64    `json:"start_ns"`
	End      int64    `json:"end_ns"`
	Child    int64    `json:"child_ns"`
	SimStart sim.Time `json:"sim_start_ns"`
	SimEnd   sim.Time `json:"sim_end_ns"`
}

// tracer keeps spans in memory for one pass. A nil *tracer is the
// untraced pass: every method is a no-op behind one nil check.
type tracer struct {
	t0        time.Time
	spans     []span
	open      []int32
	fineCount [nFine]int64
	fineNs    [nFine]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string, simNow sim.Time) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: t.now(), SimStart: simNow})
	id := int32(len(t.spans) - 1)
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32, simNow sim.Time) {
	if t == nil {
		return
	}
	sp := &t.spans[id]
	sp.End = t.now()
	sp.SimEnd = simNow
	t.open = t.open[:len(t.open)-1]
	if sp.Parent >= 0 {
		t.spans[sp.Parent].Child += sp.End - sp.Start
	}
}

// fine records one short call of kind k that took d ns.
func (t *tracer) fine(k int, d int64) {
	t.fineCount[k]++
	t.fineNs[k] += d
	if n := len(t.open); n > 0 {
		t.spans[t.open[n-1]].Child += d
	}
}

// spanStat sums the spans of one name.
type spanStat struct {
	Count  int64
	HostNs int64 // total duration
	SelfNs int64 // duration minus the children's
	SimNs  sim.Time
}

// summary folds the spans and fine counts by name.
func (t *tracer) summary() map[string]spanStat {
	out := make(map[string]spanStat)
	for _, sp := range t.spans {
		st := out[sp.Name]
		st.Count++
		st.HostNs += sp.End - sp.Start
		st.SelfNs += sp.End - sp.Start - sp.Child
		st.SimNs += sp.SimEnd - sp.SimStart
		out[sp.Name] = st
	}
	for k := 0; k < nFine; k++ {
		out[fineNames[k]] = spanStat{Count: t.fineCount[k], HostNs: t.fineNs[k], SelfNs: t.fineNs[k]}
	}
	return out
}

// mergeSpanStats adds b into a.
func mergeSpanStats(a, b map[string]spanStat) {
	for name, st := range b {
		s := a[name]
		s.Count += st.Count
		s.HostNs += st.HostNs
		s.SelfNs += st.SelfNs
		s.SimNs += st.SimNs
		a[name] = s
	}
}

// writeSpans writes the spans as JSON Lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// renderSpanTable formats a span summary, busiest self time first.
func renderSpanTable(st map[string]spanStat) []string {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if st[names[i]].SelfNs != st[names[j]].SelfNs {
			return st[names[i]].SelfNs > st[names[j]].SelfNs
		}
		return names[i] < names[j]
	})
	lines := []string{fmt.Sprintf("%-28s %10s %12s %12s %12s", "span", "count", "host_ms", "self_ms", "sim_s")}
	for _, n := range names {
		s := st[n]
		lines = append(lines, fmt.Sprintf("%-28s %10d %12.3f %12.3f %12.3f",
			n, s.Count, float64(s.HostNs)/1e6, float64(s.SelfNs)/1e6, s.SimNs.Seconds()))
	}
	return lines
}
