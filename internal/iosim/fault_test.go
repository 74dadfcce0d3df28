package iosim

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"parahash/internal/costmodel"
	"parahash/internal/faultinject"
	"parahash/internal/store"
)

// faultyStore wraps an in-memory store in the fault-injection layer, the
// one place scripted IO faults live.
func faultyStore() *faultinject.Store {
	return faultinject.WrapStore(NewStore(costmodel.MediumMemCached))
}

func writeFile(t *testing.T, s store.PartitionStore, name, content string) {
	t.Helper()
	w, err := s.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w, content); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, s store.PartitionStore, name string) []byte {
	t.Helper()
	r, err := s.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestOpenMissingIsErrNotFound(t *testing.T) {
	s := NewStore(costmodel.MediumMemCached)
	if _, err := s.Open("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := s.Size("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Size err = %v, want ErrNotFound", err)
	}
}

func TestFailReadsOnIsPersistent(t *testing.T) {
	s := faultyStore()
	writeFile(t, s, "f", "payload")
	boom := errors.New("dead")
	s.FailReadsOn("f", boom)
	for i := 0; i < 5; i++ {
		if _, err := s.Open("f"); !errors.Is(err, boom) {
			t.Fatalf("open %d: err = %v, want boom", i, err)
		}
	}
	// A nil error clears the fault.
	s.FailReadsOn("f", nil)
	readFile(t, s, "f")
}

func TestCorruptReadsPersistent(t *testing.T) {
	s := faultyStore()
	want := "bytes"
	writeFile(t, s, "f", want)
	s.CorruptReadsNTimes("f", -1)
	for i := 0; i < 3; i++ {
		if got := readFile(t, s, "f"); bytes.Equal(got, []byte(want)) {
			t.Fatalf("read %d served intact bytes under persistent corruption", i)
		}
	}
	s.CorruptReadsNTimes("f", 0) // clear
	if got := readFile(t, s, "f"); string(got) != want {
		t.Fatalf("cleared corruption still active: %q", got)
	}
}
