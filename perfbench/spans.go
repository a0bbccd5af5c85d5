package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the ID of the span that
// caused it, or -1 for a root. Times are nanoseconds since the log's
// origin.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory in begin order; writeJSONL writes them
// out when the run ends. A nil *spanLog records nothing, so one code
// path serves the traced and the untraced run.
type spanLog struct {
	origin time.Time
	spans  []span
}

// newSpanLog returns a log with room for capacity spans; sizing it up
// front keeps appends from allocating inside a measured step.
func newSpanLog(capacity int) *spanLog {
	return &spanLog{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its ID (-1 on a nil log).
func (l *spanLog) begin(name string, parent int32) int32 {
	if l == nil {
		return -1
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(l.origin))})
	return id
}

// end closes span id.
func (l *spanLog) end(id int32) {
	if l == nil {
		return
	}
	l.spans[id].End = int64(time.Since(l.origin))
}

// truncate drops span id and every span opened after it.
func (l *spanLog) truncate(id int32) {
	if l == nil {
		return
	}
	l.spans = l.spans[:id]
}

// writeJSONL writes one span per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Children may overlap each other or
// spill past their parent; only the union of their intervals clipped to
// the parent counts.
func selfTimes(spans []span) []int64 {
	children := map[int32][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
