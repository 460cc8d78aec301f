package uchecker

import (
	"reflect"
	"strings"
	"testing"
)

// TestBudgetsHalveNeverRaises: a ladder rung promises a cheaper model,
// so no field of Halve's result may exceed the resolved budget it
// halved, including a candidate set already below its floor.
func TestBudgetsHalveNeverRaises(t *testing.T) {
	for _, b := range []Budgets{
		{},
		{MaxPaths: 1, MaxObjects: 1, LoopUnroll: 1, MaxCallDepth: 1, MaxCubes: 1, MaxAssignments: 1, MaxStrCandidates: 1, MaxIntCandidates: 1},
		{MaxStrCandidates: 6, MaxIntCandidates: 3},
		{MaxStrCandidates: 8, MaxIntCandidates: 4},
		{MaxStrCandidates: 9, MaxIntCandidates: 5},
		{MaxPaths: 7, MaxObjects: 3, LoopUnroll: 3, MaxCallDepth: 2, MaxCubes: 2, MaxAssignments: 5},
	} {
		before := reflect.ValueOf(b.withDefaults())
		after := reflect.ValueOf(b.Halve())
		for i := 0; i < before.NumField(); i++ {
			if after.Field(i).Int() > before.Field(i).Int() {
				t.Errorf("%+v: Halve raised %s from %d to %d", b, before.Type().Field(i).Name, before.Field(i).Int(), after.Field(i).Int())
			}
		}
	}
	// The defaults halve as they always have, so no report changes.
	if h := (Budgets{}).Halve(); h.MaxStrCandidates != 48 || h.MaxIntCandidates != 24 {
		t.Errorf("default candidate sets halve to %d/%d, want 48/24", h.MaxStrCandidates, h.MaxIntCandidates)
	}
}

// TestBudgetsValidate: zero (the default) and positive budgets pass, and
// a negative value in any field is rejected with the field's name.
func TestBudgetsValidate(t *testing.T) {
	if err := (Budgets{}).Validate(); err != nil {
		t.Fatalf("zero budgets: %v", err)
	}
	if err := (Budgets{MaxPaths: 1, MaxStrCandidates: 96}).Validate(); err != nil {
		t.Fatalf("positive budgets: %v", err)
	}
	typ := reflect.TypeOf(Budgets{})
	for i := 0; i < typ.NumField(); i++ {
		var b Budgets
		reflect.ValueOf(&b).Elem().Field(i).SetInt(-1)
		err := b.Validate()
		if err == nil || !strings.Contains(err.Error(), typ.Field(i).Name) {
			t.Errorf("negative %s: got %v, want an error naming the field", typ.Field(i).Name, err)
		}
	}
}
