package main

import (
	"flag"
	"strings"
	"testing"
)

// TestCheckFlags: a flag whose partner is missing would have no effect,
// so the proxy refuses it before it reads keys or dials the server.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		refuse string // a fragment of the refusal; "" when the flags pass
	}{
		{nil, ""},
		{[]string{"-state", "c.state", "-state-interval", "1s"}, ""},
		{[]string{"-max-inflight", "8", "-max-queue", "8"}, ""},
		{[]string{"-state-interval", "1s"}, "-state-interval requires -state"},
		{[]string{"-max-queue", "8"}, "require -max-inflight"},
		{[]string{"-retry-after", "50ms"}, "require -max-inflight"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			flag.VisitAll(func(f *flag.Flag) {
				if !strings.HasPrefix(f.Name, "test.") {
					f.Value.Set(f.DefValue) //nolint:errcheck // a default always parses
				}
			})
			if err := flag.CommandLine.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := checkFlags()
			switch {
			case tc.refuse == "" && err != nil:
				t.Errorf("refused: %v", err)
			case tc.refuse != "" && (err == nil || !strings.Contains(err.Error(), tc.refuse)):
				t.Errorf("got %v, want the refusal %q", err, tc.refuse)
			}
		})
	}
}
