package main

import (
	"context"
	"io"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/teamnet/teamnet/internal/core"
	"github.com/teamnet/teamnet/internal/dataset"
	"github.com/teamnet/teamnet/internal/nn"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
)

// corrupting flips the lowest bit of the first probability of one answer.
type corrupting struct {
	serve.DegradedBackend
	left atomic.Int32
}

func (c *corrupting) InferQuorumContext(ctx context.Context, x *tensor.Tensor, soft time.Duration) (*tensor.Tensor, []int, int, int, error) {
	probs, winners, live, total, err := c.DegradedBackend.InferQuorumContext(ctx, x, soft)
	if err == nil && c.left.Add(-1) == 0 {
		probs.Data[0] = math.Float64frombits(math.Float64bits(probs.Data[0]) ^ 1)
	}
	return probs, winners, live, total, err
}

func TestCorruptedAnswerIsCounted(t *testing.T) {
	ds := dataset.Digits(dataset.DigitsConfig{N: 8, Seed: 3})
	spec, err := nn.DigitsExpert(4, ds.Features(), ds.Classes)
	if err != nil {
		t.Fatal(err)
	}
	team := &core.Team{Spec: spec, Classes: ds.Classes}
	rng := tensor.NewRNG(3)
	for i := 0; i < 4; i++ {
		e, err := spec.Build(rng.Split(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		team.Experts = append(team.Experts, e)
	}
	in, err := newInputs(team, ds)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newStack(in, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ref, err := newReference(s.master, in, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := &corrupting{DegradedBackend: s.tap.inner}
	c.left.Store(3)
	s.tap.inner = c

	send := predictClient(s.gw, in, ref)
	counts := map[outcome]int{}
	for i := range in.rows {
		rec := &record{idx: i, sched: time.Now()}
		send(rec)
		counts[rec.out]++
	}
	if counts[wrong] != 1 || counts[answered] != len(in.rows)-1 {
		t.Fatalf("outcomes %v, want exactly one wrong answer and the rest answered", counts)
	}
}

// TestRelayPipelines checks that a chunk sent while an earlier one is still
// in flight arrives one delay after it was sent, not behind the first.
func TestRelayPipelines(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	arrivals := make(chan time.Time, 2)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 1)
		for i := 0; i < 2; i++ {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			arrivals <- time.Now()
		}
	}()
	const delay = 50 * time.Millisecond
	r, err := newRelay(ln.Addr().String(), delay)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	c, err := net.Dial("tcp", r.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first := time.Now()
	c.Write([]byte{1})
	time.Sleep(10 * time.Millisecond)
	second := time.Now()
	c.Write([]byte{2})
	a1, a2 := <-arrivals, <-arrivals
	if d := a1.Sub(first); d < delay {
		t.Errorf("first chunk arrived after %v, want at least %v", d, delay)
	}
	if d := a2.Sub(second); d < delay || d > delay+30*time.Millisecond {
		t.Errorf("second chunk arrived %v after it was sent, want about %v", d, delay)
	}
	if r.up.Load() != 2 {
		t.Errorf("relay counted %d bytes upstream, want 2", r.up.Load())
	}
}
