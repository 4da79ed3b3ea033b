package workloads

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"fdt/internal/core"
	"fdt/internal/machine"
)

// outputDigest renders a workload's output after a run: the exact
// bits of its checksum and an FNV-1a hash over the bits of every
// output value, in order. The hash sees what a checksum cannot, such
// as two neighbours swapped in a symmetric stencil.
func outputDigest(checksum float64, fields ...[]float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range fields {
		for _, v := range f {
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("checksum=%#016x fnv64a=%#016x", math.Float64bits(checksum), h.Sum64())
}

// TestOutputDigestGoldens runs bt and mg at their Table-2 defaults on
// a fixed exact run and compares their outputs, bit for bit, with
// testdata/output_digests.txt. Their Verify replays the same update
// code it checks, so it cannot catch a change in the index math or in
// the order of a floating-point sum; this test can. A line that
// differs is printed in the file's format.
func TestOutputDigestGoldens(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open("testdata/output_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, _ := strings.Cut(line, " ")
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bt", "mg"} {
		info, _ := ByName(name)
		m := machine.MustNew(machine.DefaultConfig())
		w := info.Factory(m)
		core.NewController(core.Static{N: 8}).Run(m, w)
		var got string
		switch w := w.(type) {
		case *BT:
			got = outputDigest(w.Checksum(), w.cur)
		case *MG:
			got = outputDigest(w.Checksum(), w.fine, w.coarse)
		}
		if got != want[name] {
			t.Errorf("%s: output digest differs; got line:\n%s %s", name, name, got)
		}
	}
}
