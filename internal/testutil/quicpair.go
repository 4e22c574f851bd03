package testutil

import (
	"repro/internal/quicsim"
	"repro/internal/reference"
)

// TransportWrap decorates the client→server transport of a wired QUIC
// pair — e.g. with a netem.Link — before the reference client attaches.
type TransportWrap func(reference.Transport) reference.Transport

// QUICPair wires a quicsim server to an instrumented reference client:
// the standard fixture shared by the reference, netem, and lab test
// suites. It satisfies core.SUL.
type QUICPair struct {
	Server *quicsim.Server
	Client *reference.QUICClient
}

// NewQUICPair builds the pair with the test suites' conventional seeds
// (server 7, client 11), threading the transport through wrap when
// non-nil.
func NewQUICPair(profile quicsim.Profile, wrap TransportWrap) *QUICPair {
	srv := quicsim.NewServer(quicsim.Config{Profile: profile, Seed: 7})
	var tr reference.Transport = reference.ServerTransport(srv)
	if wrap != nil {
		tr = wrap(tr)
	}
	cli := reference.NewQUICClient(reference.QUICClientConfig{Seed: 11}, tr)
	return &QUICPair{Server: srv, Client: cli}
}

// Reset implements core.SUL: both endpoints return to their initial
// states.
func (p *QUICPair) Reset() error {
	p.Server.Reset()
	return p.Client.Reset()
}

// Step implements core.SUL.
func (p *QUICPair) Step(in string) (string, error) { return p.Client.Step(in) }
