package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Dump renders one trace from the ring as an indented tree — the
// debugging view behind the facade's TraceDump. Spans sort by start
// time under their parent; orphans (parent evicted from the ring, or a
// remote upstream) render as roots. An unknown trace renders as an
// empty string.
func Dump(r *Ring, traceID string) string {
	if r == nil {
		return ""
	}
	return DumpSpans(r.Trace(traceID), traceID)
}

// MergeSpans combines span sets from multiple sources (the local ring
// plus each peer's /v1/shard/trace answer) into one set, deduplicated
// by (trace ID, span ID) with the first occurrence winning. Input order
// is preserved; DumpSpans re-sorts structurally anyway.
func MergeSpans(sets ...[]SpanData) []SpanData {
	var out []SpanData
	seen := make(map[string]bool)
	for _, set := range sets {
		for _, sd := range set {
			key := sd.TraceID + "/" + sd.SpanID
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, sd)
		}
	}
	return out
}

// DumpSpans renders one trace from an explicit span set — the federated
// sibling of Dump, fed by MergeSpans when a coordinator assembles a
// cross-node trace. Spans of other traces are ignored; an empty
// selection renders as an empty string.
func DumpSpans(all []SpanData, traceID string) string {
	var spans []SpanData
	for _, sd := range all {
		if sd.TraceID == traceID {
			spans = append(spans, sd)
		}
	}
	if len(spans) == 0 {
		return ""
	}
	known := make(map[string]bool, len(spans))
	for _, sd := range spans {
		known[sd.SpanID] = true
	}
	children := make(map[string][]SpanData)
	var roots []SpanData
	for _, sd := range spans {
		if sd.ParentID != "" && known[sd.ParentID] {
			children[sd.ParentID] = append(children[sd.ParentID], sd)
		} else {
			roots = append(roots, sd)
		}
	}
	byStart := func(s []SpanData) {
		sort.Slice(s, func(i, j int) bool {
			if !s[i].Start.Equal(s[j].Start) {
				return s[i].Start.Before(s[j].Start)
			}
			return s[i].SpanID < s[j].SpanID
		})
	}
	byStart(roots)
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%d spans)\n", traceID, len(spans))
	var walk func(sd SpanData, depth int)
	walk = func(sd SpanData, depth int) {
		fmt.Fprintf(&b, "%s%s  %.6fs", strings.Repeat("  ", depth+1), sd.Name, sd.DurationS)
		for _, a := range sd.Attrs {
			fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
		}
		b.WriteByte('\n')
		kids := children[sd.SpanID]
		byStart(kids)
		for _, kid := range kids {
			walk(kid, depth+1)
		}
	}
	for _, root := range roots {
		walk(root, 0)
	}
	return b.String()
}
