package lab

import "testing"

// TestPooledLearnMatchesSequential checks the concurrent query engine end
// to end on real targets: a 4-shard SUL pool must produce exactly the
// model (and, thanks to deterministic batching and counterexample
// selection, exactly the query counts) of the sequential path.
func TestPooledLearnMatchesSequential(t *testing.T) {
	for _, target := range []string{TargetTCP, TargetQuiche} {
		t.Run(target, func(t *testing.T) {
			perfect := target != TargetTCP
			opts := []Option{WithSeed(13)}
			if perfect {
				opts = append(opts, WithPerfectEquivalence())
			}
			seq := learnT(t, target, opts...)
			pooled := learnT(t, target, append(opts, WithWorkers(4))...)
			if seq.Nondet != nil || pooled.Nondet != nil {
				t.Fatalf("learn halted on nondeterminism: sequential %v, pooled %v", seq.Nondet, pooled.Nondet)
			}
			if eq, ce := seq.Machine.Equivalent(pooled.Machine); !eq {
				t.Fatalf("pooled model differs from sequential on %v", ce)
			}
			// With a deterministic equivalence oracle the pooled run asks
			// exactly the sequential run's queries. (Under the heuristic
			// random-words oracle the parallel search may check a few more
			// words per round before pruning, so counts can differ there.)
			if perfect && seq.Stats.Queries != pooled.Stats.Queries {
				t.Errorf("live queries: pooled %d vs sequential %d",
					pooled.Stats.Queries, seq.Stats.Queries)
			}
		})
	}
}

// TestPooledLearnMvfstStillFlagsNondeterminism: the voting guard must keep
// working per shard — pooling may not mask the mvfst Issue 2 behaviour.
func TestPooledLearnMvfstStillFlagsNondeterminism(t *testing.T) {
	res := learnT(t, TargetMvfst, WithSeed(13), WithWorkers(4))
	if res.Nondet == nil {
		t.Fatal("pooled mvfst learn should be flagged nondeterministic")
	}
}

// TestReplicasAgree: replicas constructed by a registered builder must be
// behaviourally identical — the property the pool dispatcher assumes.
func TestReplicasAgree(t *testing.T) {
	sys, err := build(BuildSpec{Target: TargetGoogle, Replicas: 3, Seed: 13, Transport: TransportInMemory})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	word := []string{sys.Alphabet[0], sys.Alphabet[1], sys.Alphabet[2]}
	var first []string
	for i, s := range sys.SULs {
		if err := s.Reset(); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, sym := range word {
			o, err := s.Step(sym)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, o)
		}
		if i == 0 {
			first = out
			continue
		}
		for j := range out {
			if out[j] != first[j] {
				t.Fatalf("replica %d diverges at step %d: %q vs %q", i, j, out[j], first[j])
			}
		}
	}
}

// TestUDPLearnMatchesInMemory encodes the redesign's compatibility
// guarantee: learning a QUIC profile over per-worker UDP socket pairs
// yields the identical model and identical live query counts as the
// in-memory transport with the same seed and worker count.
func TestUDPLearnMatchesInMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP learning session is slow in -short mode")
	}
	opts := []Option{WithSeed(13), WithWorkers(4), WithPerfectEquivalence()}
	mem := learnT(t, TargetGoogle, opts...)
	// The model must match on every attempt. The query counts match only
	// when no datagram times out: on a starved machine scheduling jitter
	// can push responses past the quiet wait, and each such timeout adds
	// a retry query. Give the count equality a few runs so one noisy
	// scheduling window doesn't fail the deterministic-batching guarantee.
	for attempt := 1; ; attempt++ {
		udp := learnT(t, TargetGoogle, append(opts, WithTransport(TransportUDP))...)
		if mem.Nondet != nil || udp.Nondet != nil {
			t.Fatalf("learn halted on nondeterminism: in-memory %v, udp %v", mem.Nondet, udp.Nondet)
		}
		if eq, ce := mem.Machine.Equivalent(udp.Machine); !eq {
			t.Fatalf("UDP model differs from in-memory on %v", ce)
		}
		if mem.Stats.Queries == udp.Stats.Queries {
			return
		}
		if attempt == 3 {
			t.Fatalf("live queries: udp %d vs in-memory %d (after %d attempts)",
				udp.Stats.Queries, mem.Stats.Queries, attempt)
		}
		t.Logf("live queries: udp %d vs in-memory %d (scheduling jitter, retrying)",
			udp.Stats.Queries, mem.Stats.Queries)
	}
}

// TestTCPRejectsUDPTransport: the TCP stack only speaks the in-memory
// transport and must say so instead of silently ignoring the option.
func TestTCPRejectsUDPTransport(t *testing.T) {
	if _, err := NewExperiment(TargetTCP, WithTransport(TransportUDP)); err == nil {
		t.Fatal("tcp + UDP transport accepted")
	}
}
