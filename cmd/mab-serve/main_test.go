package main

import (
	"strings"
	"testing"
)

func TestParseTargetsValid(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://a:8081", "http://a:8081"},
		{"http://a:8081/", "http://a:8081"},
		{" http://a:8081 ", "http://a:8081"},
	}
	for _, c := range cases {
		got, err := parseTarget(c.in)
		if err != nil {
			t.Errorf("parseTarget(%q): unexpected error %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseTarget(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestParseTargetsEmptyURLs: whitespace-only values, a bare slash, and
// comma-separated lists must be rejected — with an example of the valid
// form in the message — rather than minting a worker pool aimed at an
// empty or mangled URL.
func TestParseTargetsEmptyURLs(t *testing.T) {
	for _, in := range []string{
		"   ",
		"/",
		",",
		"http://a:8081,",
		"http://a:8081,http://b:8082",
	} {
		got, err := parseTarget(in)
		if err == nil {
			t.Errorf("parseTarget(%q) = %q, want an error", in, got)
			continue
		}
		if !strings.Contains(err.Error(), "one URL") {
			t.Errorf("parseTarget(%q) error %q does not show the valid form", in, err)
		}
		if !strings.Contains(err.Error(), in) {
			t.Errorf("parseTarget(%q) error %q does not echo the input", in, err)
		}
	}
}
