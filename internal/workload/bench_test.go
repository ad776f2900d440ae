package workload

import (
	"io"
	"testing"

	"migratory/internal/trace"
)

// BenchmarkGenerateMP3D times the generator alone: the 2 M-access MP3D
// stream that `tracegen -app MP3D -length 2000000` writes, pulled by
// NextBatch in DefaultBatchSize batches. It reports ns per access.
func BenchmarkGenerateMP3D(b *testing.B) {
	const length = 2_000_000
	p, err := ProfileByName("MP3D")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]trace.Access, trace.DefaultBatchSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := NewSource(p, 16, 1993, length)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := src.NextBatch(buf); err == io.EOF {
				break
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/length, "ns/access")
}
