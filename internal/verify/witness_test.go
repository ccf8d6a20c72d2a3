package verify

import "testing"

func TestWitnessAcceptsLegalHistory(t *testing.T) {
	order := []AccessRecord{
		{Node: 0, Addr: 0x40, Write: true, Version: 1, At: 10},
		{Node: 1, Addr: 0x40, Version: 1, At: 12},
		{Node: 2, Addr: 0x80, Version: 0, At: 12},
		{Node: 1, Addr: 0x40, Write: true, Version: 2, At: 20},
		{Node: 0, Addr: 0x40, Version: 2, At: 25},
	}
	if v := CheckWitness(order); len(v) != 0 {
		t.Fatalf("legal history rejected: %v", v)
	}
}

func TestWitnessRejectsIllegalHistories(t *testing.T) {
	cases := []struct {
		name  string
		order []AccessRecord
	}{
		{"skipped write version", []AccessRecord{
			{Node: 0, Addr: 1, Write: true, Version: 1, At: 1},
			{Node: 1, Addr: 1, Write: true, Version: 3, At: 2},
		}},
		{"duplicated write version", []AccessRecord{
			{Node: 0, Addr: 1, Write: true, Version: 1, At: 1},
			{Node: 1, Addr: 1, Write: true, Version: 1, At: 2},
		}},
		{"stale read", []AccessRecord{
			{Node: 0, Addr: 1, Write: true, Version: 1, At: 1},
			{Node: 1, Addr: 1, Version: 0, At: 2},
		}},
		{"read of an overwritten version", []AccessRecord{
			{Node: 0, Addr: 1, Write: true, Version: 1, At: 1},
			{Node: 0, Addr: 1, Write: true, Version: 2, At: 2},
			{Node: 1, Addr: 1, Version: 1, At: 3},
		}},
		{"future read", []AccessRecord{
			{Node: 1, Addr: 1, Version: 1, At: 1},
			{Node: 0, Addr: 1, Write: true, Version: 1, At: 2},
		}},
		{"time regression", []AccessRecord{
			{Node: 0, Addr: 1, Write: true, Version: 1, At: 5},
			{Node: 1, Addr: 1, Version: 1, At: 3},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantInv(t, CheckWitness(tc.order), SCOrder)
		})
	}
}
