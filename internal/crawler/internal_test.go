package crawler

import (
	"testing"

	"repro/internal/synthweb"
)

func TestAuthenticateHelper(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://a.example/account", "http://a.example/account?auth=" + synthweb.SessionToken},
		{"http://a.example/account/p1", "http://a.example/account/p1?auth=" + synthweb.SessionToken},
		{"http://a.example/account?auth=member", "http://a.example/account?auth=member"},
		{"http://a.example/sec1", "http://a.example/sec1"},
	}
	for _, c := range cases {
		if got := authenticate(c.in); got != c.want {
			t.Errorf("authenticate(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
