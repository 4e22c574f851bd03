package lab

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/quicsim"
	"repro/internal/reference"
	"repro/internal/transport"
)

// TransportKind selects how an experiment's SUL replicas are wired to
// their reference clients.
type TransportKind string

// Available transports.
const (
	// TransportInMemory wires client and server through an in-process
	// function call — the fastest path, used by default.
	TransportInMemory TransportKind = "in-memory"
	// TransportUDP hosts each replica's server on a loopback UDP socket
	// and drives it through a real client socket — one independent socket
	// pair per replica, as the paper's containerised deployment would.
	TransportUDP TransportKind = "udp"
)

// BuildSpec is the declarative request a Builder receives: everything a
// target needs to construct Replicas behaviourally identical systems under
// learning. All replicas share the Seed, which is what makes them
// interchangeable shards for the concurrent query engine.
type BuildSpec struct {
	Target    string
	Replicas  int
	Seed      int64
	Transport TransportKind
	// AdapterCmd is the external adapter command line (WithAdapterCommand);
	// only external targets read it.
	AdapterCmd string
	// Observer receives the experiment's typed learn events; builders that
	// emit their own events (adapter restarts) forward through it.
	Observer learn.Observer
	// WrapTransport, when non-nil, must be applied by the builder to each
	// replica's client transport (passing the replica index) before the
	// reference client attaches. NewExperiment uses it to thread netem
	// links (WithImpairment) and custom middleware (WithLinkMiddleware)
	// around every worker's traffic, whatever the transport kind.
	WrapTransport func(worker int, tr reference.Transport) reference.Transport
}

// wrapFor resolves WrapTransport for one replica (identity when unset).
func (s BuildSpec) wrapFor(worker int) func(reference.Transport) reference.Transport {
	if s.WrapTransport == nil {
		return func(tr reference.Transport) reference.Transport { return tr }
	}
	return func(tr reference.Transport) reference.Transport { return s.WrapTransport(worker, tr) }
}

// System is a built target: the SUL replicas, their input alphabet, the
// ground-truth model when the target has one (nil otherwise), and any
// resources (sockets, listeners) that must be released with Close.
type System struct {
	SULs     []core.SUL
	Alphabet []string
	Truth    *automata.Mealy

	closers []func() error
}

// AddCloser registers a resource released by Close. Builders call it for
// every socket or listener a replica owns.
func (s *System) AddCloser(fn func() error) { s.closers = append(s.closers, fn) }

// Close releases every registered resource in reverse order, joining
// errors.
func (s *System) Close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil {
			errs = append(errs, err)
		}
	}
	s.closers = nil
	return errors.Join(errs...)
}

// Builder constructs a System for a BuildSpec. Builders must honour
// spec.Replicas (every replica independently resettable, all seeded
// identically) and either support spec.Transport or return an error naming
// the unsupported combination.
type Builder func(spec BuildSpec) (*System, error)

// entry is one registry record: the builder plus whether the target is
// external (its behaviour lives outside this repository, so it has no
// self-contained golden and the regression manifest does not cover it).
type entry struct {
	builder  Builder
	external bool
}

var (
	registryMu sync.RWMutex
	registry   = map[string]entry{}
)

// Register makes a target available to NewExperiment, Campaign, and the
// command-line tools under the given name. It panics on an empty name or a
// duplicate registration — both are programmer errors at init time.
func Register(name string, b Builder) { register(name, b, false) }

// RegisterExternal registers a target whose behaviour is supplied at run
// time (the subprocess adapter): it participates in every engine surface
// but is exempt from self-contained gates such as the regression
// manifest's registry-coverage guard.
func RegisterExternal(name string, b Builder) { register(name, b, true) }

func register(name string, b Builder, external bool) {
	if name == "" || b == nil {
		panic("lab: Register needs a target name and a builder")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("lab: target %q registered twice", name))
	}
	registry[name] = entry{builder: b, external: external}
}

// Targets lists all registered target names, sorted.
func Targets() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// External reports whether name is a registered external target (see
// RegisterExternal). Unknown names are not external.
func External(name string) bool {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return registry[name].external
}

// build resolves a target name and runs its builder.
func build(spec BuildSpec) (*System, error) {
	registryMu.RLock()
	e, ok := registry[spec.Target]
	registryMu.RUnlock()
	b := e.builder
	if !ok {
		return nil, fmt.Errorf("lab: unknown target %q (registered: %v)", spec.Target, Targets())
	}
	if spec.Replicas < 1 {
		spec.Replicas = 1
	}
	if spec.Transport == "" {
		spec.Transport = TransportInMemory
	}
	sys, err := b(spec)
	if err != nil {
		return nil, err
	}
	if len(sys.SULs) != spec.Replicas {
		sys.Close()
		return nil, fmt.Errorf("lab: builder for %q produced %d replicas, want %d",
			spec.Target, len(sys.SULs), spec.Replicas)
	}
	return sys, nil
}

func init() {
	Register(TargetTCP, buildTCP)
	Register(TargetTCPSACK, buildTCPSACK)
	registerQUIC(TargetGoogle, quicsim.ProfileGoogle)
	registerQUIC(TargetGoogleFixed, quicsim.ProfileGoogleFixed)
	registerQUIC(TargetQuiche, quicsim.ProfileQuiche)
	registerQUIC(TargetMvfst, quicsim.ProfileMvfst)
	registerQUIC(TargetLossyRetransmit, quicsim.ProfileLossyRetransmit)
	Register(TargetQUICVN, buildQUICVN)
	RegisterExternal(TargetAdapter, buildAdapter)
}

// buildTCP is the Builder for the userspace TCP stack. It only speaks the
// in-memory transport: the stack's Scapy-style client exchanges raw
// segments with the server function directly.
func buildTCP(spec BuildSpec) (*System, error) {
	return buildTCPVariant(spec, false)
}

// buildTCPSACK is the Builder for the SACK-enabled stack: the same
// segment path with tcpsim.Config.SACK on and the extended alphabet
// (SACK-permitted SYN, out-of-order push).
func buildTCPSACK(spec BuildSpec) (*System, error) {
	return buildTCPVariant(spec, true)
}

func buildTCPVariant(spec BuildSpec, sack bool) (*System, error) {
	if spec.Transport != TransportInMemory {
		return nil, fmt.Errorf("lab: target %q supports only the in-memory transport, not %q",
			spec.Target, spec.Transport)
	}
	alphabet := reference.TCPAlphabet()
	if sack {
		alphabet = reference.TCPSACKAlphabet()
	}
	sys := &System{Alphabet: alphabet}
	for i := 0; i < spec.Replicas; i++ {
		sys.SULs = append(sys.SULs, newTCPVariant(spec.Seed, spec.wrapFor(i), sack))
	}
	return sys, nil
}

// buildQUICVN is the Builder for the version-negotiation + stateless-retry
// target: the Google behaviour profile with both admission layers enabled,
// learned over the extended alphabet carrying a grease-versioned Initial.
// In-memory only — the VN datagram path needs no sockets to be faithful.
func buildQUICVN(spec BuildSpec) (*System, error) {
	if spec.Transport != TransportInMemory {
		return nil, fmt.Errorf("lab: target %q supports only the in-memory transport, not %q",
			spec.Target, spec.Transport)
	}
	sys := &System{Alphabet: quicsim.VNInputAlphabet()}
	seed := spec.Seed
	if seed == 0 {
		seed = 7
	}
	for i := 0; i < spec.Replicas; i++ {
		srv := quicsim.NewServer(quicsim.Config{
			Profile: quicsim.ProfileGoogle, Seed: seed,
			RetryRequired: true, VersionNegotiation: true,
		})
		tr := spec.wrapFor(i)(reference.ServerTransport(srv))
		cli := reference.NewQUICClient(reference.QUICClientConfig{Seed: seed + 4}, tr)
		sys.SULs = append(sys.SULs, &QUICSetup{Server: srv, Client: cli})
	}
	return sys, nil
}

// registerQUIC registers one QUIC profile as a target supporting both
// transports.
func registerQUIC(name string, profile quicsim.Profile) {
	Register(name, func(spec BuildSpec) (*System, error) {
		sys := &System{
			Alphabet: quicsim.InputAlphabet(),
			Truth:    quicsim.GroundTruth(profile),
		}
		// Both transports must drive identically-seeded systems (the
		// documented transport-equivalence guarantee), so the UDP path
		// applies NewQUIC's zero-seed default too.
		seed := spec.Seed
		if seed == 0 {
			seed = 7
		}
		if spec.Transport != TransportInMemory && spec.Transport != TransportUDP {
			return nil, fmt.Errorf("lab: target %q does not support transport %q", name, spec.Transport)
		}
		for i := 0; i < spec.Replicas; i++ {
			srv := quicsim.NewServer(quicsim.Config{Profile: profile, Seed: seed})
			setup := &QUICSetup{Server: srv}
			tr := reference.ServerTransport(srv)
			if spec.Transport == TransportUDP {
				// One real socket pair per replica: a loopback-hosted
				// server and a dedicated client socket, so pooled workers
				// drive genuinely independent network endpoints.
				hosted, err := transport.ListenQUIC(transport.Loopback(), srv)
				if err != nil {
					sys.Close()
					return nil, fmt.Errorf("lab: hosting %q replica %d: %w", name, i, err)
				}
				sys.AddCloser(hosted.Close)
				sock := transport.NewQUICClientTransport(hosted.Addr())
				sys.AddCloser(sock.Close)
				tr, setup.Socket, setup.Host = sock, sock, hosted
			}
			setup.Client = reference.NewQUICClient(reference.QUICClientConfig{Seed: seed + 4}, spec.wrapFor(i)(tr))
			sys.SULs = append(sys.SULs, setup)
		}
		return sys, nil
	})
}
