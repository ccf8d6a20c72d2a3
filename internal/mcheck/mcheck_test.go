package mcheck

import "testing"

func check(t *testing.T, home int, ops []Op) Result {
	t.Helper()
	c := New(home, ops)
	res := c.Run()
	t.Logf("%v", res)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	for _, d := range res.Deadlocks {
		t.Errorf("deadlock: %s", d)
	}
	if res.Terminals == 0 {
		t.Error("no terminal state reached")
	}
	return res
}

func TestSingleRead(t *testing.T) {
	check(t, 0, []Op{{Node: 3, Write: false}})
}

func TestSingleWrite(t *testing.T) {
	check(t, 0, []Op{{Node: 3, Write: true}})
}

func TestTwoConcurrentReads(t *testing.T) {
	check(t, 0, []Op{{Node: 1, Write: false}, {Node: 2, Write: false}})
}

func TestReadThenWriteSameNode(t *testing.T) {
	check(t, 0, []Op{{Node: 3, Write: false}, {Node: 3, Write: true}})
}

func TestConcurrentReadAndWrite(t *testing.T) {
	check(t, 0, []Op{{Node: 1, Write: false}, {Node: 2, Write: true}})
}

func TestTwoConcurrentWrites(t *testing.T) {
	check(t, 0, []Op{{Node: 1, Write: true}, {Node: 2, Write: true}})
}

func TestWritesToHomeLine(t *testing.T) {
	// The home node itself writes, racing a remote writer.
	check(t, 0, []Op{{Node: 0, Write: true}, {Node: 3, Write: true}})
}

func TestReadersAcrossAllNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("full exploration is slow")
	}
	check(t, 2, []Op{
		{Node: 0, Write: false},
		{Node: 1, Write: false},
		{Node: 3, Write: false},
		{Node: 0, Write: true},
	})
}
