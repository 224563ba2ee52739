package harness

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/netsim"
	"ortoa/internal/transport"
)

// scriptedAccessor answers each access with the next scripted error;
// a nil error succeeds, echoing the last written value on reads.
type scriptedAccessor struct {
	errs  []error
	calls int
	value []byte
}

func (a *scriptedAccessor) AccessContext(_ context.Context, op core.Op, _ string, v []byte) ([]byte, error) {
	err := a.errs[a.calls]
	a.calls++
	if err != nil {
		return nil, err
	}
	if op == core.OpWrite {
		a.value = v
	}
	return a.value, nil
}

// TestDrillClassifier pins the drills' one error classifier and what
// the workload does with each class: which errors widen a key's
// acceptable set, which leave it, which are offered again, and which
// are fatal at each level of tolerance a drill may name.
func TestDrillClassifier(t *testing.T) {
	relayed := func(msg string) error { return &transport.RemoteError{Msg: msg} }
	const ( // what the workload does with a tolerated outcome
		collapses = "collapses" // the set becomes exactly the value read or written
		widens    = "widens"    // a write's value joins the set
		leaves    = "leaves"    // the set is unchanged
	)
	cases := []struct {
		name    string
		err     error
		want    outcome
		effect  string
		reoffer bool
	}{
		{"nil", nil, outcomeOK, collapses, false},
		{"busy", &transport.BusyError{RetryAfter: time.Millisecond}, outcomeBusy, collapses, true},
		{"relayed busy", relayed(transport.BusyMsgPrefix + "transport: busy: overloaded"), outcomeBusy, collapses, true},
		{"relayed ambiguous", relayed(transport.AmbiguousMsgPrefix + "connection reset"), outcomeAmbiguous, widens, false},
		{"relayed ambiguous deadline", relayed(transport.AmbiguousMsgPrefix + "core: deadline expired before table build; access not sent"), outcomeAmbiguous, widens, false},
		{"no live conns", transport.ErrNoLiveConns, outcomeAmbiguous, widens, false},
		{"client closed", transport.ErrClosed, outcomeFailed, leaves, false},
		{"handoff transient", relayed("core: stale access table: record is not at this table's counter"), outcomeRejected, leaves, false},
		{"deadline expired", relayed("core: deadline budget expired before decrypt"), outcomeRejected, leaves, false},
		{"plain remote error", relayed("core: key not found"), outcomeFailed, leaves, false},
		{"tampered", fmt.Errorf("%w: group 3 label unrecognized", core.ErrTampered), outcomeTampered, "", false},
		{"relayed tampered", relayed(core.ErrTampered.Error() + ": group 3 label unrecognized"), outcomeTampered, "", false},
	}

	cluster, err := NewCluster(Config{
		System: SystemLBL, Link: netsim.Loopback, ValueSize: 16,
		Data: map[string][]byte{"k": chaosValue(16, 0, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	initial := string(cluster.cfg.Data["k"])
	written := chaosValue(16, 1, 1)

	for _, tc := range cases {
		if got := classify(tc.err); got != tc.want {
			t.Errorf("%s: classify = %d, want %d", tc.name, got, tc.want)
			continue
		}
		// The levels drills name: bench, chaos, failover/overload,
		// crash/stream.
		for _, tolerate := range []outcome{outcomeOK, outcomeAmbiguous, outcomeRejected, outcomeFailed} {
			script := &scriptedAccessor{errs: []error{tc.err, nil}}
			cluster.shards[0].px.Accessor = script
			d := newDrill(cluster, []string{"k"}, 1, 1, tolerate)
			var tot drillTotals
			err := d.offer(d.sets[0], "k", written, &tot)
			set := d.sets[0]["k"]
			if fatal := tc.want > tolerate; fatal {
				if err == nil {
					t.Errorf("%s at tolerance %d: offer succeeded, want a fatal error", tc.name, tolerate)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s at tolerance %d: offer failed: %v", tc.name, tolerate, err)
				continue
			}
			if wantCalls := map[bool]int{false: 1, true: 2}[tc.reoffer]; script.calls != wantCalls {
				t.Errorf("%s at tolerance %d: %d accesses, want %d (re-offer %v)", tc.name, tolerate, script.calls, wantCalls, tc.reoffer)
			}
			var want valSet
			switch tc.effect {
			case collapses:
				want = valSet{string(written): true}
			case widens:
				want = valSet{initial: true, string(written): true}
			case leaves:
				want = valSet{initial: true}
			}
			if len(set) != len(want) {
				t.Errorf("%s at tolerance %d: acceptable set has %d values, want %d", tc.name, tolerate, len(set), len(want))
			}
			for v := range want {
				if !set[v] {
					t.Errorf("%s at tolerance %d: acceptable set lost an expected value", tc.name, tolerate)
				}
			}
		}
	}

	// A read that returns a value outside the set is fatal whatever the
	// tolerance; an ambiguous read changes nothing.
	for _, tolerate := range []outcome{outcomeOK, outcomeFailed} {
		cluster.shards[0].px.Accessor = &scriptedAccessor{errs: []error{nil}, value: written}
		d := newDrill(cluster, []string{"k"}, 1, 1, tolerate)
		if err := d.offer(d.sets[0], "k", nil, new(drillTotals)); err == nil {
			t.Errorf("tolerance %d: a read of a value no write produced was accepted", tolerate)
		}
	}
	cluster.shards[0].px.Accessor = &scriptedAccessor{errs: []error{transport.ErrNoLiveConns}}
	d := newDrill(cluster, []string{"k"}, 1, 1, outcomeAmbiguous)
	if err := d.offer(d.sets[0], "k", nil, new(drillTotals)); err != nil || len(d.sets[0]["k"]) != 1 || !d.sets[0]["k"][initial] {
		t.Errorf("ambiguous read: err=%v set=%d values, want the set unchanged", err, len(d.sets[0]["k"]))
	}

	// Starvation past maxBusyRetries is fatal even where busy is tolerated.
	busy := &transport.BusyError{RetryAfter: time.Nanosecond}
	errs := make([]error, maxBusyRetries+2)
	for i := range errs {
		errs[i] = busy
	}
	cluster.shards[0].px.Accessor = &scriptedAccessor{errs: errs}
	d = newDrill(cluster, []string{"k"}, 1, 1, outcomeFailed)
	if err := d.offer(d.sets[0], "k", written, new(drillTotals)); err == nil {
		t.Error("an operation shed past maxBusyRetries was not declared starved")
	}
}
