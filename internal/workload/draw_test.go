package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"migratory/internal/memory"
)

// scripted is a rand.Source whose Int63 returns vals in order, then
// zeros; used counts the values drawn.
type scripted struct {
	vals []int64
	used int
}

func (s *scripted) Int63() int64 {
	s.used++
	if s.used <= len(s.vals) {
		return s.vals[s.used-1]
	}
	return 0
}

func (s *scripted) Seed(int64) {}

// TestDrawNodeMatchesIntn replays rand.Intn's node draw for every node
// count: drawNode must return what rand.New(src).Intn(n) returns from the
// same Int63 values, and consume as many of them. Real seeds almost never
// reach Int31n's rejection loop, so the script leads with values whose top
// 31 bits lie just above the rejection bound, on it, and at the largest
// 31-bit value, before ordinary ones; the low 32 bits, which Int31n
// discards, are never zero.
func TestDrawNodeMatchesIntn(t *testing.T) {
	p, err := ProfileByName("Water")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for n := 2; n <= memory.MaxNodes; n++ {
		bound := int64(1<<31 - 1 - (1<<31)%uint32(n))
		var vals []int64
		for _, top := range []int64{bound + 1, bound, 1<<31 - 1, bound + 1, 1<<31 - 1, 0, bound - 1, int64(n), int64(n) - 1} {
			top = min(top, 1<<31-1) // n a power of two: nothing lies above the bound
			vals = append(vals, top<<32|0x5eadbeef)
		}
		for i := 0; i < 64; i++ {
			vals = append(vals, rng.Int63())
		}
		g, err := NewGenerator(p, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, want := &scripted{vals: vals}, &scripted{vals: vals}
		g.rng = rand.New(got)
		ref := rand.New(want)
		for i := 0; want.used < len(vals); i++ {
			if d, w := int(g.drawNode()), ref.Intn(n); d != w || got.used != want.used {
				t.Fatalf("n=%d draw %d: drawNode %d after %d values, Intn %d after %d", n, i, d, got.used, w, want.used)
			}
		}
	}
}

// TestStreamPinned pins the SHA-256 of the first 50 000 accesses of every
// profile at node counts that take each path of the node draw (powers of
// two, and counts with small and large rejection bounds). Each access
// hashes as its node, kind and little-endian address. Any change to how
// the random stream is consumed, to an episode or to an address moves a
// hash; the values were recorded before the generator's per-access step
// was rewritten.
func TestStreamPinned(t *testing.T) {
	want := map[string]string{
		"Cholesky/2":     "aa0de927d149f0fe4e4fff320451533f87a992ddc75ba9e6a0659f257b4355cd",
		"Cholesky/3":     "f50521f7595b3df7e62468591c2c5dc7418e8be4f8089279e3b1b907d34507f6",
		"Cholesky/5":     "a9c8c2a5bf13e568c8f48ddb4365ce481f13f7b22e99daa27bf3568cfadc677b",
		"Cholesky/12":    "66bb8271a8fd6fd8a0718a68aefc5d9373ea95f76a892fe67e143a9c47bbca8d",
		"Cholesky/16":    "37c31b01bb689ea8e68e4bd4fe9913dd085446bc508b14004b3e61baceea183d",
		"Cholesky/24":    "f8246f7e797b7b347dbb49bd4e777dc367ea3ee7e29a6d1be854b3bad446fd5a",
		"Cholesky/64":    "839fb84173e0625a265424e2bf26c7808c5a67759b5357d951e49944fc9ea191",
		"Locus Route/2":  "30ae89a7b9c033f2359f316e7f6311a9613175a15552c8e4ea6a11e57eed61d9",
		"Locus Route/3":  "310c6b803423dff8d08cd83c9a2f9be9bb52854ed33e6984fd41fe0515c66846",
		"Locus Route/5":  "63b0aea8c9d394e3156e97f059d42d82f634576dd50e60a086a5520350dd09b3",
		"Locus Route/12": "2e1b96dad87628e83ecc72f22aebc5a09b057efd8147271a288cff8a0e4a8229",
		"Locus Route/16": "7cc9c2d4763f8c6d272dd998344854007dd83de96581d40445b4bcb8dbf95060",
		"Locus Route/24": "a94c44eb39a7c6c0bfe67a6c7518f73bcaa2a5683339b99b3cd5474e01e5eb2c",
		"Locus Route/64": "349db58411832b781da4c6b89bb4a73c153ae9c3a69c5d5435e2b100675d074a",
		"MP3D/2":         "0b91de15072e33b17c1f26e5204cece6a5b52652b91777d6fa254a0a996baf5a",
		"MP3D/3":         "77cd0a2f7d7360534ab08829b519515e3b612fe70090bd4d961f01c28d27dbf0",
		"MP3D/5":         "86f700b7e522cdd350cc653848a1133b05ca096a4cc75a05ea89bd4a24eb20be",
		"MP3D/12":        "85e37493f3eb576297977848a4af16526832f5ce7fdbb79ba671abe44bf4b7f3",
		"MP3D/16":        "31fa64254091376af35657826ddc5be82ab47ef3b400bca83603cc6853098221",
		"MP3D/24":        "7ec520d3005e7df64e40b4525df67ef5a44c386508ff2f6e127fea7e434a288f",
		"MP3D/64":        "b3f4f7092c39fc6540ef9718bd7e85f8586139f3483fa0e2febfd673be359849",
		"Pthor/2":        "152d3df17675ef7e3a34a8366c47eb6bad8e5c459654134647211a185dd3c2b6",
		"Pthor/3":        "aa263f68eb4f8d1c936ab8445b9a6104ab70d022e4c84c44b3016ca4a12a2d2a",
		"Pthor/5":        "6c99e2838cc3787356419fb97328de366e6dedbbd2a4063dac5a13fd25b22675",
		"Pthor/12":       "311c99d1aa771b90194be7e567375d9da4ffb5b092964b62efa368edc7952189",
		"Pthor/16":       "98f46c1f010223220dbe4894b4192b56384d0aacb72606ff21dcd72101b49876",
		"Pthor/24":       "794fc54b04e465e77edd1e080c8e308343b94d7f06cf2705bc5400f4b4d8b8f7",
		"Pthor/64":       "e4241f7b1446eb3f1589ebfd91c046756c1d982da7908b03c234513324963276",
		"Water/2":        "a059817d9311f37dbfe0977ef286d5277c33494ab559b33cd032eee38a6ba382",
		"Water/3":        "5a0d97a4ac955878c8acb132dde43824206a6a428bc1722ebf424d3cbdee0612",
		"Water/5":        "d3d3ac7ebb4d661e60134f6132ced410a9fe137bfc4c25c7239f1ab31df322c8",
		"Water/12":       "054544483a7bd604657686b994afc9fdd8baf7c2d94a9281638595355a276e10",
		"Water/16":       "839ddbf86260f308ec679c179b991b67269535d0b84d7cac247b48186edc3306",
		"Water/24":       "dc43c648c27c73654ba566251106820bfeac2f5e2bd2c6db8fe5eef43c6cd734",
		"Water/64":       "ae953a27f57c1214f5ef7b92b231a5ee265f6c09b8968c34b2447936e42fe9b6",
	}
	for _, p := range Profiles() {
		for _, nodes := range []int{2, 3, 5, 12, 16, 24, 64} {
			src, err := NewSource(p, nodes, 1993, 50000)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var rec [10]byte
			for {
				a, err := src.Next()
				if err != nil {
					break
				}
				rec[0], rec[1] = byte(a.Node), byte(a.Kind)
				binary.LittleEndian.PutUint64(rec[2:], uint64(a.Addr))
				h.Write(rec[:])
			}
			key := fmt.Sprintf("%s/%d", p.Name, nodes)
			if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
				t.Errorf("%s: sha256 %s, want %s", key, got, want[key])
			}
		}
	}
}
