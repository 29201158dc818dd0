package lossless

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// lzProfiles are the match finders that share lzScratchPool: blosclz's
// single probe into 14 hash bits and the two LZH profiles' chains over
// 16.
func lzProfiles() []struct {
	name string
	p    lzParams
} {
	return []struct {
		name string
		p    lzParams
	}{
		{NameBloscLZ, bloscParams},
		{NameZstdLike, NewLZH(ProfileZstd).params},
		{NameXzLike, NewLZH(ProfileXz).params},
	}
}

// checkLZScratch compresses src on sc and on a fresh scratch, which
// must give the same tokens, and decodes them back to src.
func checkLZScratch(t *testing.T, sc *lzScratch, src []byte, p lzParams, what string) {
	t.Helper()
	want := new(lzScratch).compress(nil, src, p)
	got := sc.compress(nil, src, p)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: a reused scratch gave %d token bytes, a fresh one %d", what, len(got), len(want))
	}
	back, err := lzDecompress(nil, got, len(src), p.dist3)
	if err != nil || !bytes.Equal(back, src) {
		t.Fatalf("%s: tokens do not decode back (err %v)", what, err)
	}
	// Whatever a call leaves in the head table must read as empty to
	// the next one: below the base it will use.
	if i := slices.IndexFunc(sc.head, func(v int32) bool { return int(v) >= sc.base }); i >= 0 {
		t.Fatalf("%s: head[%d] = %d is not below the next base %d", what, i, sc.head[i], sc.base)
	}
}

// TestLZScratchReuseMatchesFresh reuses one scratch across inputs of
// mixed sizes and across the three profiles, in an order that leaves
// each table holding another profile's, larger or smaller, entries.
func TestLZScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	random := make([]byte, 70000)
	rng.Read(random)
	inputs := [][]byte{
		goldenInput(50000),
		bytes.Repeat([]byte("abcabcabd0123"), 3000),
		random,
		goldenInput(300),
		[]byte("abc"),
		goldenInput(4),
		random[:9000],
		bytes.Repeat([]byte{0}, 20000),
		goldenInput(120000)[70000:],
	}
	profiles := lzProfiles()
	sc := new(lzScratch)
	for round := 0; round < 3; round++ {
		for i, src := range inputs {
			pr := profiles[(i+round)%len(profiles)]
			checkLZScratch(t, sc, src, pr.p, fmt.Sprintf("round %d, input %d (%d B), %s", round, i, len(src), pr.name))
		}
	}
}

// TestLZScratchBaseWraps starts base where the call's last position
// just fits and the next base reaches MaxInt32, which keeps the table,
// and one past it, and then at MaxInt32 itself, which both clear the
// table and start base again at 1.
func TestLZScratchBaseWraps(t *testing.T) {
	src := goldenInput(5000)
	n := len(src)
	prime := bytes.Repeat([]byte("0123456789abcdefghij"), 3000) // unlike src
	for _, pr := range lzProfiles() {
		for _, c := range []struct {
			name      string
			base      int
			baseAfter int
		}{
			{"below the wrap", math.MaxInt32 - n - 1, math.MaxInt32},
			{"at the wrap", math.MaxInt32 - n, 1 + n + 1},
			{"from MaxInt32", math.MaxInt32, 1 + n + 1},
		} {
			sc := new(lzScratch)
			checkLZScratch(t, sc, prime, pr.p, pr.name+": prime")
			sc.base = c.base
			what := pr.name + ": " + c.name
			checkLZScratch(t, sc, src, pr.p, what)
			if sc.base != c.baseAfter {
				t.Fatalf("%s: base %d after the call, want %d", what, sc.base, c.baseAfter)
			}
			for _, pr2 := range lzProfiles() {
				checkLZScratch(t, sc, goldenInput(7000), pr2.p, what+", then "+pr2.name)
			}
		}
		// Entries near MaxInt32 left by a kept table must be cleared by
		// the next call, not misread once base starts again.
		sc := new(lzScratch)
		sc.base = math.MaxInt32 - n - 1
		checkLZScratch(t, sc, prime[:n], pr.p, pr.name+": fill near MaxInt32")
		checkLZScratch(t, sc, src, pr.p, pr.name+": after the fill")
	}
}

// FuzzLZCompress compresses fuzz-chosen bytes at every profile on a
// scratch that already holds another input's entries, with base pushed
// to a fuzz-chosen height (up to the wrap): the tokens must equal a
// fresh scratch's and decode back.
func FuzzLZCompress(f *testing.F) {
	f.Add(goldenInput(3000), []byte("prime"), uint32(0))
	f.Add(bytes.Repeat([]byte("abcabcabd0123"), 100), goldenInput(9000), uint32(math.MaxInt32-20))
	f.Add([]byte{}, []byte{}, uint32(math.MaxInt32))
	f.Add([]byte("abcd"), []byte("abcdabcd"), uint32(math.MaxInt32-4))
	f.Fuzz(func(t *testing.T, src, prime []byte, base uint32) {
		if len(src) > 1<<16 || len(prime) > 1<<16 {
			return // bound per-exec work
		}
		for _, pr := range lzProfiles() {
			sc := new(lzScratch)
			sc.compress(nil, prime, lzProfiles()[len(prime)%3].p)
			sc.base = max(sc.base, int(min(base, math.MaxInt32))) // base only ever rises
			checkLZScratch(t, sc, src, pr.p, pr.name)
		}
	})
}
