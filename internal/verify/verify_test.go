package verify

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCleanRunHasNoViolations(t *testing.T) {
	c := New(true)
	c.RegisterCopy(1, 0)
	v := c.CommitWrite(1, 0, 10)
	if v != 1 {
		t.Fatalf("first commit version %d, want 1", v)
	}
	c.SampleRead(1, 1, 1, 2, 20)
	c.RegisterCopy(1, 2)
	c.ObserveRead(1, 1, 2, 25, false)
	c.ObserveRead(1, 1, 2, 30, true)
	if len(c.Violations()) != 0 {
		t.Fatalf("clean run reported violations: %v", c.Violations())
	}
	if errs := CheckWitness(c.Order()); len(errs) != 0 {
		t.Fatalf("clean order flagged: %v", errs)
	}
}

// wantInv fails the test unless some violation carries inv.
func wantInv(t *testing.T, vs []Violation, inv Invariant) {
	t.Helper()
	for _, v := range vs {
		if v.Inv == inv {
			return
		}
	}
	t.Fatalf("no %s violation among %v", inv, vs)
}

func TestSingleWriterViolationDetected(t *testing.T) {
	c := New(false)
	c.RegisterCopy(5, 1)
	c.RegisterCopy(5, 2)
	c.CommitWrite(5, 1, 100)
	wantInv(t, c.Violations(), SoleCopyAtCommit)
}

func TestUnregisterClearsCopy(t *testing.T) {
	c := New(false)
	c.RegisterCopy(5, 2)
	c.UnregisterCopy(5, 2)
	c.CommitWrite(5, 1, 100)
	if len(c.Violations()) != 0 {
		t.Fatalf("unexpected violations: %v", c.Violations())
	}
	if n := len(c.Copies(5)); n != 0 {
		// CommitWrite does not register the writer's copy itself.
		t.Fatalf("Copies after unregister = %d entries", n)
	}
}

func TestSampleMismatchDetected(t *testing.T) {
	c := New(false)
	c.SampleRead(9, 3, 4, 0, 50)
	wantInv(t, c.Violations(), SCOrder)
}

func TestObserveMonotonicityViolation(t *testing.T) {
	c := New(false)
	c.ObserveRead(7, 5, 3, 10, false)
	c.ObserveRead(7, 4, 3, 20, false)
	wantInv(t, c.Violations(), SCOrder)
}

func TestLocalStaleCopyDetected(t *testing.T) {
	c := New(false)
	c.CommitWrite(7, 0, 5)
	c.CommitWrite(7, 0, 6)
	// Node 3 holds a stale local copy of version 1.
	c.ObserveRead(7, 1, 3, 30, true)
	wantInv(t, c.Violations(), NoStaleCopy)
}

func TestDeliveryStaleObservationIsAllowed(t *testing.T) {
	// A reply delivered after a conflicting write committed is SC-legal
	// (the read serialized earlier); only local copies are strict.
	c := New(false)
	c.CommitWrite(7, 0, 5)
	c.CommitWrite(7, 0, 6)
	c.ObserveRead(7, 1, 3, 30, false)
	if len(c.Violations()) != 0 {
		t.Fatalf("legal stale delivery flagged: %v", c.Violations())
	}
}

func TestVersionsAdvancePerLine(t *testing.T) {
	c := New(false)
	c.CommitWrite(1, 0, 1)
	c.CommitWrite(2, 0, 2)
	c.CommitWrite(1, 0, 3)
	if c.CurrentVersion(1) != 2 || c.CurrentVersion(2) != 1 {
		t.Fatalf("versions %d/%d, want 2/1", c.CurrentVersion(1), c.CurrentVersion(2))
	}
}

func TestViolationListIsBounded(t *testing.T) {
	c := New(false)
	for i := 0; i < 500; i++ {
		c.SampleRead(1, 1, 2, 0, int64(i))
	}
	if len(c.Violations()) > 100 {
		t.Fatalf("violation list unbounded: %d entries", len(c.Violations()))
	}
}

// Property: any serially executed sequence of writes and current-version
// reads is violation-free and passes the order check.
func TestSerialExecutionAlwaysClean(t *testing.T) {
	err := quick.Check(func(ops []uint8) bool {
		c := New(true)
		now := int64(0)
		holder := map[uint64]int{}
		for _, op := range ops {
			now++
			addr := uint64(op % 4)
			node := int(op>>4) % 4
			if op%2 == 0 { // write
				if h, ok := holder[addr]; ok {
					c.UnregisterCopy(addr, h)
				}
				v := c.CommitWrite(addr, node, now)
				_ = v
				c.RegisterCopy(addr, node)
				holder[addr] = node
			} else { // read current version from memory
				cur := c.CurrentVersion(addr)
				c.SampleRead(addr, cur, cur, node, now)
				c.ObserveRead(addr, cur, node, now, false)
			}
		}
		return len(c.Violations()) == 0 && len(CheckWitness(c.Order())) == 0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// Every other holder of a committed line is reported, in ascending node
// order whatever order the copies were registered in.
func TestCommitWriteReportsHoldersInNodeOrder(t *testing.T) {
	c := New(false)
	c.RegisterCopy(5, 7)
	c.RegisterCopy(5, 1)
	c.RegisterCopy(5, 3)
	c.CommitWrite(5, 1, 100)
	vs := c.Violations()
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(vs), vs)
	}
	for i, node := range []int{3, 7} {
		want := fmt.Sprintf("while node %d holds a valid copy", node)
		if vs[i].Inv != SoleCopyAtCommit || !strings.Contains(vs[i].Detail, want) {
			t.Fatalf("violation %d = %v, want %s ... %q", i, vs[i], SoleCopyAtCommit, want)
		}
	}
	if got := c.Copies(5); !slices.Equal(got, []int{1, 3, 7}) {
		t.Fatalf("Copies = %v, want [1 3 7]", got)
	}
}
