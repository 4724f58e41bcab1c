package binfile_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/binfile"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pickle"
)

// hostileSource declares a function its top level never calls. The
// body reads k from the unit's root frame, so its coordinates include
// a depth delta of 1 — which only a function nested in the root can
// hold.
const hostileSource = `
structure Hostile = struct
  val k = 3
  fun never n = n * k + 1
end
`

// forgeUncalledBody returns two copies of bin with the first nonzero-
// delta coordinate of its code section — one inside never's body —
// forged: its slot set past any frame's width, and its depth delta set
// past the open frames. The code section is the bin's tail.
func forgeUncalledBody(t *testing.T, bin []byte, ix *pickle.Index) map[string][]byte {
	t.Helper()
	u, err := binfile.Read(bin, ix)
	if err != nil {
		t.Fatalf("genuine bin rejected: %v", err)
	}
	code := u.CodeBytes
	if !bytes.HasSuffix(bin, code) {
		t.Fatal("code section is not the bin's tail")
	}
	base := len(bin) - len(code)
	for p := 0; p < len(code); p += 2 {
		delta, n := binary.Uvarint(code[p:])
		_, m := binary.Uvarint(code[p+n:])
		if n != 1 || m != 1 {
			t.Fatalf("coordinate at %d is not two one-byte uvarints", p)
		}
		if delta == 0 {
			continue
		}
		forged := map[string][]byte{}
		for name, at := range map[string]int{"slot": base + p + 1, "delta": base + p} {
			b := append([]byte(nil), bin...)
			b[at] = 0x7f
			forged[name] = b
		}
		return forged
	}
	t.Fatal("no coordinate inside a nested body")
	return nil
}

// TestForgedUncalledBodyRejectedByRead: binfile.Read validates the
// coordinates of bodies the unit never calls, at load: the read fails
// and code.load_errors is counted, though nothing has executed.
func TestForgedUncalledBodyRejectedByRead(t *testing.T) {
	s, err := compiler.NewSession(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.Compile("hostile", hostileSource)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := binfile.Encode(u)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range forgeUncalledBody(t, bin, s.Index) {
		rec := obs.NewBuffer()
		if _, err := binfile.ReadObserved(bad, s.Index, rec); err == nil {
			t.Errorf("forged %s accepted", name)
		}
		if got := rec.Get("code.load_errors"); got != 1 {
			t.Errorf("forged %s: code.load_errors = %d, want 1", name, got)
		}
		if got := rec.Get("code.loads"); got != 0 {
			t.Errorf("forged %s: code.loads = %d, want 0", name, got)
		}
	}
}

// TestForgedUncalledBodyRecompiles: a DirStore entry whose bin carries
// such a forged coordinate passes the store's own checks (its CRC is
// valid), so the build reaches binfile.Read, which rejects it: the unit
// is reported bin-unreadable, recompiled, and the store heals.
func TestForgedUncalledBodyRecompiles(t *testing.T) {
	files := []core.File{{Name: "hostile.sml", Source: hostileSource}}
	for _, name := range []string{"slot", "delta"} {
		dir := filepath.Join(t.TempDir(), "bins")
		store, err := core.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := core.NewManager()
		m.Store = store
		if _, err := m.Build(files); err != nil {
			t.Fatal(err)
		}
		e, err := store.Load("hostile.sml")
		if err != nil || e == nil {
			t.Fatalf("load entry: %v %v", e, err)
		}
		s, err := compiler.NewSession(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		e.Bin = forgeUncalledBody(t, e.Bin, s.Index)[name]
		if err := store.Save("hostile.sml", e); err != nil {
			t.Fatal(err)
		}

		m = core.NewManager()
		m.Store = store
		if _, err := m.Build(files); err != nil {
			t.Fatalf("forged %s: %v", name, err)
		}
		if len(m.Explains) != 1 {
			t.Fatalf("forged %s: %d explain records", name, len(m.Explains))
		}
		if x := m.Explains[0]; x.Action != obs.ActionCompiled || x.Reason != obs.ReasonBinUnreadable {
			t.Errorf("forged %s: action=%s reason=%s, want compiled/bin-unreadable", name, x.Action, x.Reason)
		}
		if m.Stats.Compiled != 1 || m.Stats.Corrupt != 1 || m.Stats.Recovered != 1 {
			t.Errorf("forged %s: compiled=%d corrupt=%d recovered=%d, want 1/1/1",
				name, m.Stats.Compiled, m.Stats.Corrupt, m.Stats.Recovered)
		}

		m = core.NewManager()
		m.Store = store
		if _, err := m.Build(files); err != nil {
			t.Fatal(err)
		}
		if m.Stats.Loaded != 1 || m.Stats.Compiled != 0 {
			t.Errorf("forged %s: after recovery loaded=%d compiled=%d, want 1/0", name, m.Stats.Loaded, m.Stats.Compiled)
		}
	}
}
