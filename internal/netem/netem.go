// Package netem emulates adverse network conditions — datagram loss,
// duplication, and reordering — around a reference.Transport. §5 of the
// paper motivates the nondeterminism check precisely with such
// environmental effects ("latency and packet loss could cause
// non-determinism to be observed"); this package lets experiments, the
// test suite, and benchmarks inject those effects deterministically and
// verify that the voting guard outvotes transient glitches while still
// flagging genuinely nondeterministic implementations.
package netem

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/reference"
)

// Config sets per-datagram fault probabilities, applied independently to
// each direction. All probabilities are in [0, 1].
type Config struct {
	// LossClient drops client->server datagrams.
	LossClient float64
	// LossServer drops server->client datagrams.
	LossServer float64
	// Duplicate re-delivers a server->client datagram immediately.
	Duplicate float64
	// Reorder swaps adjacent server->client datagrams of one exchange.
	Reorder float64
	// Seed drives the fault coin flips. Each direction draws from its own
	// stream derived from this seed, so client-side faults never perturb
	// the server-side fault pattern (and vice versa).
	Seed int64
}

// Enabled reports whether the config injects any fault at all. A disabled
// config needs no Link.
func (c Config) Enabled() bool {
	return c.LossClient > 0 || c.LossServer > 0 || c.Duplicate > 0 || c.Reorder > 0
}

// ForWorker derives the per-worker variant of the config: identical fault
// rates, an independent fault stream. Pooled experiments wrap every
// worker's transport in its own Link seeded this way, so the fault pattern
// each replica observes depends only on (Seed, worker index) — never on
// how the scheduler interleaves the workers' queries.
func (c Config) ForWorker(worker int) Config {
	c.Seed = mix(c.Seed, int64(worker))
	return c
}

// Label renders the fault rates compactly ("loss=5%,dup=1%,reorder=0%"),
// for run names and reports. Asymmetric loss is shown per direction.
func (c Config) Label() string {
	loss := fmt.Sprintf("loss=%g%%", c.LossClient*100)
	if c.LossServer != c.LossClient {
		loss = fmt.Sprintf("loss=%g%%/%g%%", c.LossClient*100, c.LossServer*100)
	}
	return fmt.Sprintf("%s,dup=%g%%,reorder=%g%%", loss, c.Duplicate*100, c.Reorder*100)
}

// mix is a splitmix64 round over the seed and stream index, spreading
// adjacent worker indices across the whole seed space.
func mix(seed, stream int64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(stream+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Stats is a consistent snapshot of a Link's fault counters.
type Stats struct {
	SentClient, DroppedClient int
	SentServer, DroppedServer int
	Duplicated, Reordered     int
}

// Add accumulates other into s (for aggregating per-worker links).
func (s *Stats) Add(other Stats) {
	s.SentClient += other.SentClient
	s.DroppedClient += other.DroppedClient
	s.SentServer += other.SentServer
	s.DroppedServer += other.DroppedServer
	s.Duplicated += other.Duplicated
	s.Reordered += other.Reordered
}

// Link wraps a transport with emulated network faults. It is safe for
// concurrent use.
type Link struct {
	mu    sync.Mutex
	cfg   Config
	inner reference.Transport

	// Independent per-direction fault streams: a client-side drop must not
	// shift which server-side coin the next response draws, or the fault
	// pattern would depend on the exact interleaving of bidirectional
	// traffic instead of only on the seed.
	clientRNG *rand.Rand
	serverRNG *rand.Rand

	stats Stats
}

// New wraps inner with fault injection.
func New(inner reference.Transport, cfg Config) *Link {
	return &Link{
		cfg:       cfg,
		inner:     inner,
		clientRNG: rand.New(rand.NewSource(mix(cfg.Seed, 0x0C11E47))),
		serverRNG: rand.New(rand.NewSource(mix(cfg.Seed, 0x5E7FE7))),
	}
}

// Stats returns a consistent snapshot of the fault counters.
func (l *Link) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Send implements reference.Transport.
func (l *Link) Send(src string, datagram []byte) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.SentClient++
	metricSentClient.Inc()
	if l.clientRNG.Float64() < l.cfg.LossClient {
		l.stats.DroppedClient++
		metricDroppedClient.Inc()
		return nil // the request never arrives; no response can exist
	}
	responses := l.inner.Send(src, datagram)
	// Filter the responses in place: a kept response moves down over the
	// dropped ones, never past one not yet read. Only a duplicate makes
	// the burst longer than it arrived, so only a duplicate moves it to a
	// new slice.
	out, inPlace := responses[:0], true
	for _, r := range responses {
		l.stats.SentServer++
		metricSentServer.Inc()
		if l.serverRNG.Float64() < l.cfg.LossServer {
			l.stats.DroppedServer++
			metricDroppedServer.Inc()
			continue
		}
		out = append(out, r)
		if l.serverRNG.Float64() < l.cfg.Duplicate {
			l.stats.Duplicated++
			metricDuplicated.Inc()
			if inPlace {
				out, inPlace = append(make([][]byte, 0, len(responses)+1), out...), false
			}
			out = append(out, append([]byte(nil), r...))
		}
	}
	if len(out) > 1 && l.serverRNG.Float64() < l.cfg.Reorder {
		i := l.serverRNG.Intn(len(out) - 1)
		out[i], out[i+1] = out[i+1], out[i]
		l.stats.Reordered++
		metricReordered.Inc()
	}
	return out
}
