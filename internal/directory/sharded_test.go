package directory

import (
	"runtime"
	"testing"
)

func TestResolveShards(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	auto := 1
	for auto*2 <= procs {
		auto *= 2
	}
	cases := []struct {
		shards, cacheBytes, blockSize, assoc, want int
	}{
		{0, 0, 16, 4, 1},
		{1, 0, 16, 4, 1},
		{-2, 0, 16, 4, 1},
		{2, 0, 16, 4, 2},
		{3, 0, 16, 4, 2},
		{6, 0, 16, 4, 4},
		{64, 0, 16, 4, 64},
		{-1, 0, 16, 4, auto},
		// 4 KB of 16-byte blocks, 4-way: 64 sets caps the count.
		{128, 4 << 10, 16, 4, 64},
		{128, 4 << 10, 16, 0, 64},
		// 8-way halves the set count, and with it the cap.
		{128, 4 << 10, 16, 8, 32},
		{8, 4 << 10, 16, 8, 8},
	}
	for _, tc := range cases {
		if got := ResolveShards(tc.shards, tc.cacheBytes, tc.blockSize, tc.assoc); got != tc.want {
			t.Errorf("ResolveShards(%d, %d, %d, %d) = %d, want %d",
				tc.shards, tc.cacheBytes, tc.blockSize, tc.assoc, got, tc.want)
		}
	}
}
