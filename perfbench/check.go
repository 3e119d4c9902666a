package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/tensor"
)

// reference is the answer the team gives each checked pool input when asked
// through Master.InferContext in 16-row batches with no other load, outside
// the timed window. Snapshot rows are batch-invariant, so a served answer
// must equal it bit for bit whatever batch the gateway put the row in.
type reference struct {
	probs   [][]float64 // nil for an unchecked pool entry
	winners []int
	labels  []int
	checked int
}

// newReference answers every pool entry, or a seeded sample of sample
// entries when sample > 0 (for teams too slow to answer the whole pool),
// with up to parallel batches in flight: RTT-bound teams finish sooner,
// the answers do not depend on it.
func newReference(m *cluster.Master, in *inputs, sample, parallel int, seed int64) (*reference, error) {
	n := len(in.rows)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if sample > 0 && sample < n {
		idx = rand.New(rand.NewSource(seed)).Perm(n)[:sample]
	}
	ref := &reference{probs: make([][]float64, n), winners: make([]int, n), labels: in.labels, checked: len(idx)}
	width := in.rows[0].Shape[1]

	var wg sync.WaitGroup
	errs := make(chan error, parallel)
	sem := make(chan struct{}, parallel)
	for lo := 0; lo < len(idx); lo += maxBatch {
		part := idx[lo:min(lo+maxBatch, len(idx))]
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			x := tensor.New(len(part), width)
			for r, i := range part {
				copy(x.RowSlice(r), in.rows[i].Data)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			probs, winners, err := m.InferContext(ctx, x)
			if err != nil {
				select {
				case errs <- fmt.Errorf("reference batch: %w", err):
				default:
				}
				return
			}
			for r, i := range part {
				ref.probs[i] = append([]float64(nil), probs.RowSlice(r)...)
				ref.winners[i] = winners[r]
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	return ref, nil
}

// matches reports whether an answer for pool entry i equals the reference
// bit for bit; entries without a reference match trivially.
func (r *reference) matches(i int, probs []float64, winner int) bool {
	want := r.probs[i]
	if want == nil {
		return true
	}
	if winner != r.winners[i] || len(probs) != len(want) {
		return false
	}
	for c := range want {
		if math.Float64bits(probs[c]) != math.Float64bits(want[c]) {
			return false
		}
	}
	return true
}

// labelled reports whether the arg-max of probs is pool entry i's label.
func (r *reference) labelled(i int, probs []float64) bool {
	best := 0
	for c := range probs {
		if probs[c] > probs[best] {
			best = c
		}
	}
	return best == r.labels[i]
}
