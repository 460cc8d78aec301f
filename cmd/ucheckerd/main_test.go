package main

import (
	"net/http"
	"testing"
	"time"
)

// TestServerTimeouts pins the daemon's connection timeouts: headers and
// idle keep-alive connections are bounded, while ReadTimeout and
// WriteTimeout stay unset so an events stream can last a job's whole
// life.
func TestServerTimeouts(t *testing.T) {
	srv := newServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 {
		t.Errorf("ReadTimeout = %v, want 0: a read deadline cancels a running events stream", srv.ReadTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0: an events stream writes for a job's whole life", srv.WriteTimeout)
	}
}
