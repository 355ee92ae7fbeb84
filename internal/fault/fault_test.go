package fault

import (
	"bytes"
	"errors"
	"testing"
)

func TestDisarmedIsNoOp(t *testing.T) {
	r := New()
	if r.armed.Load() {
		t.Fatal("fresh registry reports enabled")
	}
	if err := r.Hit("any.site"); err != nil {
		t.Fatalf("disarmed Hit: %v", err)
	}
	b := []byte("payload")
	if got := r.Mangle("any.site", b); &got[0] != &b[0] {
		t.Fatal("disarmed Mangle copied the payload")
	}
}

func TestErrorOnceSchedule(t *testing.T) {
	r := New()
	r.Arm(Rule{Site: "s", Mode: ModeError, After: 2, Times: 1, Msg: "boom"})
	for i := 1; i <= 5; i++ {
		err := r.Hit("s")
		if i == 3 {
			if err == nil {
				t.Fatalf("call %d: want injected error", i)
			}
			var ie *InjectedError
			if !errors.As(err, &ie) {
				t.Fatalf("call %d: error not InjectedError: %v", i, err)
			}
			if ie.Site != "s" || ie.Msg != "boom" {
				t.Fatalf("call %d: wrong error payload: %+v", i, ie)
			}
		} else if err != nil {
			t.Fatalf("call %d: unexpected error %v", i, err)
		}
	}
}

func TestPersistentErrorUntilDisarm(t *testing.T) {
	r := New()
	r.Arm(Rule{Site: "s", Mode: ModeError}) // times=0 → forever
	for i := 0; i < 10; i++ {
		if r.Hit("s") == nil {
			t.Fatalf("call %d: persistent rule did not fire", i)
		}
	}
	if r.Fired() != 10 {
		t.Fatalf("Fired() = %d, want 10", r.Fired())
	}
	r.Disarm()
	if r.Hit("s") != nil {
		t.Fatal("rule survived Disarm")
	}
}

func TestCorruptionDeterministicAndCopies(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 256)
	orig := bytes.Clone(payload)

	r1 := New()
	r1.Arm(Rule{Site: "s", Mode: ModeCorrupt, Seed: 42})
	got1 := r1.Mangle("s", payload)

	if !bytes.Equal(payload, orig) {
		t.Fatal("Mangle modified the input slice")
	}
	if bytes.Equal(got1, orig) {
		t.Fatal("Mangle did not corrupt the payload")
	}

	r2 := New()
	r2.Arm(Rule{Site: "s", Mode: ModeCorrupt, Seed: 42})
	got2 := r2.Mangle("s", orig)
	if !bytes.Equal(got1, got2) {
		t.Fatal("same seed produced different corruption")
	}

	r3 := New()
	r3.Arm(Rule{Site: "s", Mode: ModeCorrupt, Seed: 43})
	got3 := r3.Mangle("s", orig)
	if bytes.Equal(got1, got3) {
		t.Fatal("different seeds produced identical corruption")
	}
}

func TestSitesAreIndependent(t *testing.T) {
	r := New()
	r.Arm(Rule{Site: "a", Mode: ModeError})
	if err := r.Hit("b"); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
	if err := r.Hit("a"); err == nil {
		t.Fatal("armed site did not fire")
	}
	if len(r.rules) != 1 || len(r.rules["a"]) != 1 {
		t.Fatalf("armed sites = %v, want only a", r.rules)
	}
	if ar := r.rules["a"][0]; ar.calls.Load() != 1 || ar.fired.Load() != 1 {
		t.Fatalf("site a: calls %d fired %d, want 1 and 1", ar.calls.Load(), ar.fired.Load())
	}
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec(
		"store.wal.append=error:after=50:times=30:msg=no space left on device; " +
			"cluster.pull.body=corrupt:times=8:seed=7;" +
			"server.ingest.admit=error:after=2:times=1:seed=3",
	)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(rules) != 3 {
		t.Fatalf("got %d rules, want 3", len(rules))
	}
	want0 := Rule{Site: "store.wal.append", Mode: ModeError, After: 50, Times: 30, Msg: "no space left on device"}
	if rules[0] != want0 {
		t.Fatalf("rule 0 = %+v, want %+v", rules[0], want0)
	}
	want1 := Rule{Site: "cluster.pull.body", Mode: ModeCorrupt, Times: 8, Seed: 7}
	if rules[1] != want1 {
		t.Fatalf("rule 1 = %+v, want %+v", rules[1], want1)
	}
	want2 := Rule{Site: "server.ingest.admit", Mode: ModeError, After: 2, Times: 1, Seed: 3}
	if rules[2] != want2 {
		t.Fatalf("rule 2 = %+v, want %+v", rules[2], want2)
	}
}

func TestParseSpecMsgSwallowsColons(t *testing.T) {
	rules, err := ParseSpec("s=error:msg=a:b:c")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if rules[0].Msg != "a:b:c" {
		t.Fatalf("msg = %q, want %q", rules[0].Msg, "a:b:c")
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"nosite",
		"s=explode",
		"s=error:bogus=1",
		"s=error:times=x",
		"s=latency",           // removed mode
		"s=latency:delay=5ms", // removed mode
		"s=error:prob=0.5",    // removed option
		"s=error:prob=1.5",    // removed option
		"s=error:after=-1",    // negative
		"s=error:timesbogus",  // option without '='
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
}

func TestParseSpecEmpty(t *testing.T) {
	rules, err := ParseSpec("")
	if err != nil || len(rules) != 0 {
		t.Fatalf("empty spec: rules=%v err=%v", rules, err)
	}
}
