package main

import (
	"io"
	"sort"
	"sync"
	"time"

	"nocsim/internal/obs"
)

// now is the benchmark's one host-clock read. Every timing the
// benchmark reports derives from it.
func now() time.Time {
	return time.Now() //nocvet:allow wallclock benchmark timing is reported, never fed back into a simulation
}

// Span is one timed interval around a call into a layer. Spans of one
// repetition or request share Trace; Parent links a span to the span
// whose work caused it (0 for a root).
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Trace  string        `json:"trace"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run writes them out. A nil
// *Tracer records nothing, so untraced runs pay one nil check per call.
type Tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []Span
}

// newTracer starts a tracer whose timestamps count from now.
func newTracer() *Tracer { return &Tracer{origin: now()} }

// Begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(parent int, trace, name, layer string) int {
	if t == nil {
		return 0
	}
	return t.Add(parent, trace, name, layer, now(), time.Time{})
}

// End closes a span opened by Begin.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	at := now().Sub(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// Add records a span with known bounds (a zero end leaves it open) and
// returns its id. Spans rebuilt from the program's own reports — run
// completion lines, daemon job traces — enter through here.
func (t *Tracer) Add(parent int, trace, name, layer string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Span{
		ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Layer: layer,
		Start: start.Sub(t.origin),
	}
	if !end.IsZero() {
		s.End = end.Sub(t.origin)
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// Spans returns a copy of every recorded span, in creation order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// interval is a half-open [lo, hi) time range.
type interval struct{ lo, hi time.Duration }

// covered returns how much of [lo, hi) the given intervals cover,
// counting overlapping parts once.
func covered(lo, hi time.Duration, ivs []interval) time.Duration {
	var clip []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clip = append(clip, interval{a, b})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i].lo < clip[j].lo })
	var sum, end time.Duration
	end = lo
	for _, iv := range clip {
		if iv.hi <= end {
			continue
		}
		if iv.lo > end {
			end = iv.lo
		}
		sum += iv.hi - end
		end = iv.hi
	}
	return sum
}

// selfTimes returns each span's self time: its length minus the part
// of it its children cover.
func selfTimes(spans []Span) map[int]time.Duration {
	kids := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// LayerTime is one row of the per-layer self-time table.
type LayerTime struct {
	Layer string  `json:"layer"`
	SelfS float64 `json:"self_s"`
	Spans int     `json:"spans"`
}

// layerTable sums self time per layer, largest first. The root spans'
// layer ("bench") is the benchmark's own time between calls: the
// unattributed wait.
func layerTable(spans []Span) []LayerTime {
	self := selfTimes(spans)
	acc := map[string]*LayerTime{}
	for _, s := range spans {
		lt := acc[s.Layer]
		if lt == nil {
			lt = &LayerTime{Layer: s.Layer}
			acc[s.Layer] = lt
		}
		lt.SelfS += self[s.ID].Seconds()
		lt.Spans++
	}
	out := make([]LayerTime, 0, len(acc))
	for _, lt := range acc {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfS != out[j].SelfS {
			return out[i].SelfS > out[j].SelfS
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// nestByContainment sets the parent of each span in ids to the
// shortest other span of the set that contains it, or to root when
// none does. Daemon job traces carry no parent links; their spans nest
// by time.
func nestByContainment(t *Tracer, ids []int, root int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		s := &t.spans[id-1]
		best, bestDur := root, time.Duration(-1)
		for _, oid := range ids {
			if oid == id {
				continue
			}
			o := t.spans[oid-1]
			contains := o.Start <= s.Start && s.End <= o.End
			// Equal intervals nest by creation order, never both ways.
			if o.Start == s.Start && o.End == s.End && oid > id {
				contains = false
			}
			if contains && (bestDur < 0 || o.Dur() < bestDur) {
				best, bestDur = oid, o.Dur()
			}
		}
		s.Parent = best
	}
}

// writeChrome exports the spans as Chrome trace-event JSON. Spans are
// packed into lanes (tids) so that spans on one lane either nest or
// follow each other, which is what trace viewers require.
func writeChrome(w io.Writer, spans []Span) error {
	order := append([]Span(nil), spans...)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].Start != order[j].Start {
			return order[i].Start < order[j].Start
		}
		return order[i].End > order[j].End
	})
	var lanes [][]time.Duration // per lane, the ends of its open spans
	events := make([]obs.ChromeEvent, 0, len(order))
	for _, s := range order {
		lane := -1
		for i := range lanes {
			st := lanes[i]
			for len(st) > 0 && st[len(st)-1] <= s.Start {
				st = st[:len(st)-1]
			}
			lanes[i] = st
			if len(st) == 0 || st[len(st)-1] >= s.End {
				lane = i
				break
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], s.End)
		events = append(events, obs.ChromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: s.Start.Microseconds(), Dur: s.Dur().Microseconds(),
			Pid: 1, Tid: uint64(lane + 1),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "trace": s.Trace},
		})
	}
	return obs.WriteChromeJSON(w, events)
}
