package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"migratory/internal/memory"
)

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatalf("Kind strings: %q %q", Read, Write)
	}
	if got := Kind(9).String(); got != "Kind(9)" {
		t.Fatalf("unknown kind string: %q", got)
	}
}

func TestAccessString(t *testing.T) {
	a := Access{Node: 3, Kind: Write, Addr: 0x1040}
	if got := a.String(); got != "P3 write 0x1040" {
		t.Fatalf("Access.String = %q", got)
	}
}

func TestSliceSource(t *testing.T) {
	accs := []Access{
		{Node: 0, Kind: Read, Addr: 0},
		{Node: 1, Kind: Write, Addr: 16},
	}
	s := NewSliceSource(accs)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	got, err := ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, accs) {
		t.Fatalf("ReadAll = %v; want %v", got, accs)
	}
	// Exhausted source keeps returning EOF.
	if _, err := s.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next after EOF: %v", err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	a, err := s.Next()
	if err != nil || a != accs[0] {
		t.Fatalf("after Reset: %v %v", a, err)
	}
	// Rest returns the unconsumed tail and drains the source.
	if rest := s.Rest(); !reflect.DeepEqual(rest, accs[1:]) {
		t.Fatalf("Rest = %v; want %v", rest, accs[1:])
	}
	if _, err := s.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next after Rest: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySlice(t *testing.T) {
	s := NewSliceSource(nil)
	if _, err := s.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty Next: %v", err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(s)
	if err != nil || len(got) != 0 {
		t.Fatalf("ReadAll empty = %v, %v", got, err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	accs := make([]Access, 1000)
	for i := range accs {
		accs[i] = Access{
			Node: memory.NodeID(rng.Intn(16)),
			Kind: Kind(rng.Intn(2)),
			Addr: memory.Addr(rng.Uint64() >> 20),
		}
	}
	var buf bytes.Buffer
	if err := WriteTo(&buf, accs); err != nil {
		t.Fatal(err)
	}
	got, err := readSequential(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, accs) {
		t.Fatal("round trip mismatch")
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTo(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := readSequential(buf.Bytes())
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip = %v, %v", got, err)
	}
}

// The TestReadFrom* tests pin the MTR1 read path, which Decoder provides as
// conversion input.
func TestReadFromBadMagic(t *testing.T) {
	_, err := readSequential([]byte("XXXX\x00\x00\x00\x00\x00\x00\x00\x00"))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic error: %v", err)
	}
}

func TestReadFromTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTo(&buf, []Access{{Node: 1, Kind: Write, Addr: 42}}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, err := readSequential(full[:len(full)-cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncating %d bytes: %v, want ErrTruncated", cut, err)
		}
	}
}

func TestReadFromImplausibleCount(t *testing.T) {
	raw := append([]byte("MTR1"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := readSequential(raw); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("implausible count: %v, want ErrCorrupt", err)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(nodes []uint8, kinds []bool, addrs []uint32) bool {
		n := len(nodes)
		if len(kinds) < n {
			n = len(kinds)
		}
		if len(addrs) < n {
			n = len(addrs)
		}
		accs := make([]Access, n)
		for i := 0; i < n; i++ {
			k := Read
			if kinds[i] {
				k = Write
			}
			accs[i] = Access{Node: memory.NodeID(nodes[i]), Kind: k, Addr: memory.Addr(addrs[i])}
		}
		var buf bytes.Buffer
		if err := WriteTo(&buf, accs); err != nil {
			return false
		}
		got, err := readSequential(buf.Bytes())
		if err != nil {
			return false
		}
		if len(got) != len(accs) {
			return false
		}
		for i := range accs {
			if got[i] != accs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
