package core

import "testing"

func TestPublishedPoliciesValidate(t *testing.T) {
	for _, p := range Policies() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestPoliciesOrderMatchesPaperTables(t *testing.T) {
	got := Policies()
	want := []string{"conventional", "conservative", "basic", "aggressive"}
	if len(got) != len(want) {
		t.Fatalf("Policies() = %v", got)
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Errorf("Policies()[%d] = %s; want %s", i, got[i].Name, name)
		}
	}
}

func TestPolicyByName(t *testing.T) {
	p, err := PolicyByName("aggressive")
	if err != nil || !p.InitialMigratory {
		t.Fatalf("PolicyByName(aggressive) = %+v, %v", p, err)
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestPolicyParameters(t *testing.T) {
	if Conventional.Adaptive {
		t.Error("conventional must not be adaptive")
	}
	if Conservative.Hysteresis != 2 || Conservative.InitialMigratory {
		t.Errorf("conservative = %+v", Conservative)
	}
	if Basic.Hysteresis != 1 || Basic.InitialMigratory {
		t.Errorf("basic = %+v", Basic)
	}
	if Aggressive.Hysteresis != 1 || !Aggressive.InitialMigratory {
		t.Errorf("aggressive = %+v", Aggressive)
	}
	for _, p := range []Policy{Conservative, Basic, Aggressive} {
		if !p.RetainWhenUncached {
			t.Errorf("%s must retain classification while uncached", p.Name)
		}
	}
}

func TestPolicyValidateRejections(t *testing.T) {
	cases := []Policy{
		{},                                  // no name
		{Name: "x", Adaptive: true},         // hysteresis 0
		{Name: "x", InitialMigratory: true}, // non-adaptive migratory
		{Name: "x", Adaptive: true, Hysteresis: -1},
		{Name: "x", Adaptive: true, Hysteresis: maxHysteresis + 1}, // overflows State.Evidence
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate accepted", i, p)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Basic.String() != "basic" {
		t.Fatalf("String = %q", Basic.String())
	}
}
