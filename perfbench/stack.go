package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"github.com/teamnet/teamnet/internal/cluster"
	"github.com/teamnet/teamnet/internal/core"
	"github.com/teamnet/teamnet/internal/serve"
	"github.com/teamnet/teamnet/internal/tensor"
	"github.com/teamnet/teamnet/internal/trace"
)

// The serving configuration teamnet-serve ships by default. The benchmark
// sets it through the public serve.Config and cluster.Master setters so it
// measures the stack as users run it.
const (
	maxBatch    = 16
	dispatchers = 2
	deadline    = 2 * time.Second
)

func gatewayConfig() serve.Config {
	return serve.Config{
		MaxBatch:       maxBatch,
		MaxLinger:      2 * time.Millisecond,
		QueueSize:      256,
		Workers:        dispatchers,
		DefaultTimeout: deadline,
		Degraded:       true,
		SLOTarget:      deadline,
		CacheSize:      4096,
		CacheTTL:       5 * time.Second,
		Coalesce:       true,
	}
}

// stack is one serving deployment in this process: the master runs expert
// 0, one cluster.Worker per other expert listens on loopback (behind a
// relay when the workload has a link delay), and a gateway fronts the
// master.
type stack struct {
	team    *core.Team
	master  *cluster.Master
	workers []*cluster.Worker
	relays  []*relay
	gw      *serve.Gateway
	tap     *tap // backend wrapper of the traced run; nil otherwise
}

// newStack builds a ready stack from the bundle: decode, snapshot compile,
// listen, connect and warm-up. With traced set, the gateway's backend is a
// tap around the master.
func newStack(in *inputs, linkDelay time.Duration, traced bool) (s *stack, err error) {
	s = &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.team, err = core.LoadTeam(bytes.NewReader(in.bundle))
	if err != nil {
		return nil, err
	}
	m := cluster.NewMaster(s.team.Experts[0], s.team.Classes)
	s.master = m
	m.SetTimeout(deadline)
	m.SetSupervisor(cluster.SupervisorConfig{MaxRetries: 1})
	m.SetTracer(trace.New("gateway", 0))
	m.SetHedge(cluster.HedgeConfig{Enabled: true})
	m.SetRetryBudget(cluster.NewRetryBudget(cluster.RetryBudgetConfig{Ratio: 0.1}))
	for i := 1; i < s.team.K(); i++ {
		w := cluster.NewWorker(s.team.Experts[i], i)
		s.workers = append(s.workers, w)
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if linkDelay > 0 {
			r, err := newRelay(addr, linkDelay)
			if err != nil {
				return nil, err
			}
			s.relays = append(s.relays, r)
			addr = r.addr()
		}
		if err := m.Connect(addr); err != nil {
			return nil, err
		}
	}
	if err := m.Ping(); err != nil {
		return nil, err
	}
	var backend serve.DegradedBackend = m
	if traced {
		s.tap = newTap(m, dispatchers)
		backend = s.tap
	}
	s.gw = serve.New(backend, gatewayConfig())
	s.gw.SetTracer(m.Tracer())
	s.gw.SetModelVersion(in.version)

	// Warm-up on a full batch of rows outside the pool, straight into the
	// master so no cache entry is made: links dialled, mux windows opened,
	// snapshot scratch grown to the largest batch the gateway sends.
	x := tensor.New(maxBatch, in.rows[0].Shape[1])
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		_, _, err := m.InferContext(ctx, x)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// spans returns the backend batch spans the tap has recorded so far; nil
// when the stack has no tap.
func (s *stack) spans() []batchSpan {
	if s.tap == nil {
		return nil
	}
	s.tap.mu.Lock()
	defer s.tap.mu.Unlock()
	return append([]batchSpan(nil), s.tap.batches...)
}

// linkBytes is the total the emulated links carried so far.
func (s *stack) linkBytes() int64 {
	var n int64
	for _, r := range s.relays {
		n += r.bytes()
	}
	return n
}

// close stops the gateway, master, relays and workers, in that order.
func (s *stack) close() {
	if s.gw != nil {
		s.gw.Close()
	}
	if s.master != nil {
		s.master.Close()
	}
	for _, r := range s.relays {
		r.close()
	}
	for _, w := range s.workers {
		w.Close()
	}
}
