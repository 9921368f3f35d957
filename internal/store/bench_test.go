package store

import (
	"testing"

	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/sim"
)

// The store's layer probes: one write-through Put and one disk-served
// Get of a full INCA report, for a shallow and a deep network.
//
//	go test ./internal/store -run X -bench 'Store(Put|Get)' -benchmem

var benchSink *sim.Report

func benchReports(b *testing.B) []keyedReport {
	return simulate(b, []string{"is"}, []*nn.Network{nn.LeNet5(), nn.ResNet50()}, []sim.Phase{sim.Inference})
}

func BenchmarkStorePut(b *testing.B) {
	for _, c := range benchReports(b) {
		b.Run(c.rep.Network, func(b *testing.B) {
			// The cap bounds the disk a long run fills: compaction keeps
			// only the newest copy of the one key.
			s := mustOpen(b, b.TempDir(), Options{MaxBytes: 64 << 20})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Put(c.key, c.rep)
			}
		})
	}
}

func BenchmarkStoreGet(b *testing.B) {
	for _, c := range benchReports(b) {
		b.Run(c.rep.Network, func(b *testing.B) {
			s := mustOpen(b, b.TempDir(), Options{})
			s.Put(c.key, c.rep)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, ok := s.Get(c.key)
				if !ok {
					b.Fatal("miss")
				}
				benchSink = rep
			}
		})
	}
}
