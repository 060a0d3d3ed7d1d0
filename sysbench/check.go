package main

import (
	"context"
	"fmt"
	"sync"

	"dra4wfms/internal/document"
	"dra4wfms/internal/monitor"
)

// check verifies the run's outputs against the generator's own tally:
//   - the portal's Statistics counts exactly the instances the generator
//     started, in the states it drove them to, with one final CER per
//     acknowledged step;
//   - every completed instance's final document passes VerifyAll with
//     the workload's signature count and holds its CER count.
//
// It returns the summed size of the newest version of every stored
// document and the problems found (none when the run is correct).
func (r *runner) check(ctx context.Context) (docBytes int64, problems []string, err error) {
	r.mu.Lock()
	insts := append([]*instance(nil), r.insts...)
	r.mu.Unlock()

	var running, completed, cers int
	for _, in := range insts {
		if in.failed {
			problems = append(problems, fmt.Sprintf("%s: an operation failed, state unknown", in.pid))
		}
		if in.completed {
			completed++
		} else {
			running++
		}
		cers += in.steps
	}
	var stats *monitor.Statistics
	err = r.call(ctx, "statistics", "httpapi.client", func(context.Context) (err error) {
		stats, err = r.clients[0].portal[designer].Statistics()
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	byState, byDef := stats.InstancesByState, stats.InstancesByDefinition
	if byState["running"] != running || byState["completed"] != completed || len(byState) > 2 {
		problems = append(problems, fmt.Sprintf("statistics: states %v, generator tally running=%d completed=%d",
			byState, running, completed))
	}
	if byDef[r.def.Name] != len(insts) || len(byDef) != 1 {
		problems = append(problems, fmt.Sprintf("statistics: definitions %v, generator started %d %s instances",
			byDef, len(insts), r.def.Name))
	}
	if stats.TotalFinalCERs != cers {
		problems = append(problems, fmt.Sprintf("statistics: %d final CERs, generator acknowledged %d steps", stats.TotalFinalCERs, cers))
	}

	var mu sync.Mutex
	next := 0
	err = r.parallel(func(cl *client) error {
		for {
			mu.Lock()
			if next == len(insts) {
				mu.Unlock()
				return nil
			}
			in := insts[next]
			next++
			mu.Unlock()
			var doc *document.Document
			err := r.call(ctx, "retrieve", "httpapi.client", func(ctx context.Context) (err error) {
				doc, err = cl.portal[designer].RetrieveCtx(ctx, in.pid)
				return err
			})
			if err != nil {
				return err
			}
			p := r.verify(in, doc)
			mu.Lock()
			docBytes += int64(doc.Size())
			problems = append(problems, p...)
			mu.Unlock()
		}
	})
	return docBytes, problems, err
}

// verify checks one stored document against the generator's tally.
func (r *runner) verify(in *instance, doc *document.Document) []string {
	var problems []string
	if got := len(doc.FinalCERs()); got != in.steps {
		problems = append(problems, fmt.Sprintf("%s: %d final CERs stored, %d steps acknowledged", in.pid, got, in.steps))
	}
	if !in.completed {
		return problems
	}
	n, err := doc.VerifyAll(r.fx.reg)
	switch {
	case err != nil:
		problems = append(problems, fmt.Sprintf("%s: final document fails verification: %v", in.pid, err))
	case n != r.w.wantSigs:
		problems = append(problems, fmt.Sprintf("%s: %d signatures verified, want %d", in.pid, n, r.w.wantSigs))
	}
	if got := len(doc.CERs()); got != r.w.wantCERs {
		problems = append(problems, fmt.Sprintf("%s: %d CERs, want %d", in.pid, got, r.w.wantCERs))
	}
	return problems
}
