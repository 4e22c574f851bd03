package transport

import (
	"net"
	"sync"

	"repro/internal/metrics"
)

// Process-wide transport metric families. Instrumentation lives in a
// decorator around the platform BatchConn (see NewBatchConn), so the
// recvmmsg/sendmmsg hot loops and the portable fallback stay untouched
// and the read path stays alloc-free — recording is a handful of atomic
// adds on counters resolved once at init.
var (
	metricReadBatches = metrics.Default().CounterWith("prognosis_transport_batches_total",
		"Batch operations that moved at least one datagram.", []string{"dir"}, []string{"read"})
	metricWriteBatches = metrics.Default().CounterWith("prognosis_transport_batches_total",
		"Batch operations that moved at least one datagram.", []string{"dir"}, []string{"write"})
	metricReadMessages = metrics.Default().CounterWith("prognosis_transport_messages_total",
		"Datagrams moved through batch operations.", []string{"dir"}, []string{"read"})
	metricWriteMessages = metrics.Default().CounterWith("prognosis_transport_messages_total",
		"Datagrams moved through batch operations.", []string{"dir"}, []string{"write"})
	metricSyscallsSaved = metrics.Default().Counter("prognosis_transport_syscalls_saved_total",
		"Syscalls avoided by multi-message batching (messages beyond the first in each recvmmsg/sendmmsg).")
	metricBatchSize = metrics.Default().Histogram("prognosis_transport_batch_size",
		"Datagrams per non-empty batch operation.", []float64{1, 2, 4, 8, 16, 32})
	metricLateVoided = metrics.Default().CounterWith("prognosis_transport_late_datagrams_total",
		lateHelp, []string{"execution"}, []string{"voided"})
	metricLateReturned = metrics.Default().CounterWith("prognosis_transport_late_datagrams_total",
		lateHelp, []string{"execution"}, []string{"returned"})
	metricEarlyEnds = metrics.Default().Counter("prognosis_transport_early_ends_total",
		"Exchanges ended as soon as what they heard was the expected answer, without a quiet wait.")
)

const lateHelp = "Response datagrams that arrived after their exchange's wait had closed: " +
	"voided when found while their execution ran, returned when found only after it had returned."

// measuredConn decorates a BatchConn with metrics-plane accounting.
type measuredConn struct {
	inner batchImpl
}

func newMeasuredConn(conn *net.UDPConn) *measuredConn {
	return &measuredConn{inner: newBatchImpl(conn, conn.RemoteAddr() != nil)}
}

func (m *measuredConn) Batched() bool { return m.inner.Batched() }

func (m *measuredConn) record(read bool, n int) {
	if n <= 0 {
		return
	}
	if read {
		metricReadBatches.Inc()
		metricReadMessages.Add(int64(n))
	} else {
		metricWriteBatches.Inc()
		metricWriteMessages.Add(int64(n))
	}
	if m.inner.Batched() && n > 1 {
		// One multi-message syscall moved n datagrams; the per-packet
		// path would have paid n.
		metricSyscallsSaved.Add(int64(n - 1))
	}
	metricBatchSize.Observe(float64(n))
}

func (m *measuredConn) ReadBatch(ms []Message) (int, error) {
	n, err := m.inner.ReadBatch(ms)
	m.record(true, n)
	return n, err
}

func (m *measuredConn) TryReadBatch(ms []Message) (int, error) {
	n, err := m.inner.TryReadBatch(ms)
	m.record(true, n)
	return n, err
}

func (m *measuredConn) readLocked(ms []Message, mu *sync.Mutex) (int, error) {
	n, err := m.inner.readLocked(ms, mu)
	m.record(true, n)
	return n, err
}

func (m *measuredConn) discard() { m.inner.discard() }

func (m *measuredConn) WriteBatch(ms []Message) (int, error) {
	n, err := m.inner.WriteBatch(ms)
	m.record(false, n)
	return n, err
}
