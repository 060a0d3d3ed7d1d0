package main

import (
	"sort"
	"time"

	"dra4wfms/internal/trace"
)

// layerOf names the layer a span's tier is reported under as self.<layer>.
func layerOf(tier string) string {
	switch tier {
	case "client":
		return "generator"
	case "http":
		return "httpapi.server"
	case "httpapi.client", "aea", "dsig", "portal", "tfc", "pool", "poolcluster":
		return tier
	}
	return "other"
}

// layers lists every self.<layer> the breakdown can report, in output order.
var layers = []string{"generator", "httpapi.client", "aea", "dsig", "httpapi.server", "portal", "tfc", "pool", "poolcluster", "other"}

// breakdown is the exclusive time per layer over a set of step traces.
type breakdown struct {
	steps   int
	wall    time.Duration            // summed step wall clock
	self    map[string]time.Duration // summed self time by layer
	async   time.Duration            // relay replication, off the step's path
	orphans int                      // spans whose parent span was never seen
}

type interval struct{ s, e time.Time }

func (iv interval) len() time.Duration {
	if iv.e.After(iv.s) {
		return iv.e.Sub(iv.s)
	}
	return 0
}

func clip(iv, to interval) interval {
	if iv.s.Before(to.s) {
		iv.s = to.s
	}
	if iv.e.After(to.e) {
		iv.e = to.e
	}
	if iv.e.Before(iv.s) {
		iv.e = iv.s
	}
	return iv
}

// union is the total length covered by the intervals.
func union(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s.Before(ivs[j].s) })
	var total time.Duration
	var cur interval
	for i, iv := range ivs {
		if i == 0 || iv.s.After(cur.e) {
			total += cur.len()
			cur = iv
		} else if iv.e.After(cur.e) {
			cur.e = iv.e
		}
	}
	return total + cur.len()
}

// selfTimes computes each layer's self time over the given step traces.
// A span's self time is its duration minus the union of its children,
// with every span clipped to its parent's interval and so to the step's.
// Where children never overlap, the self times of one trace partition
// its root's wall clock exactly. Relay deliveries replicate to backups
// asynchronously, so relay subtrees are left out of the partition and
// summed into async instead.
func selfTimes(spans []trace.FinishedSpan, steps map[string]bool) breakdown {
	b := breakdown{self: map[string]time.Duration{}}
	byTrace := map[string][]trace.FinishedSpan{}
	for _, s := range spans {
		if steps[s.TraceID] {
			byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
		}
	}
	for _, ts := range byTrace {
		kids := map[string][]trace.FinishedSpan{}
		var root *trace.FinishedSpan
		for i, s := range ts {
			if s.ParentID == "" {
				root = &ts[i]
				continue
			}
			kids[s.ParentID] = append(kids[s.ParentID], s)
		}
		if root == nil {
			continue
		}
		reached := 1
		var visit func(s trace.FinishedSpan, iv interval)
		visit = func(s trace.FinishedSpan, iv interval) {
			var covered []interval
			for _, k := range kids[s.SpanID] {
				reached++
				if k.Tier == "relay" {
					b.async += k.Duration
					reached += countSubtree(kids, k.SpanID)
					continue
				}
				kiv := clip(interval{k.Start, k.End()}, iv)
				covered = append(covered, kiv)
				visit(k, kiv)
			}
			b.self[layerOf(s.Tier)] += iv.len() - union(covered)
		}
		rootIv := interval{root.Start, root.End()}
		visit(*root, rootIv)
		b.steps++
		b.wall += rootIv.len()
		b.orphans += len(ts) - reached
	}
	return b
}

func countSubtree(kids map[string][]trace.FinishedSpan, id string) int {
	n := 0
	for _, k := range kids[id] {
		n += 1 + countSubtree(kids, k.SpanID)
	}
	return n
}
