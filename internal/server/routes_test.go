package server

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// request issues one bodyless request and returns the response with its
// body read.
func request(t *testing.T, method, url string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// envelopeCode returns the code of a JSON error envelope, "" when body is
// not one.
func envelopeCode(body string) string {
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if json.Unmarshal([]byte(body), &env) != nil {
		return ""
	}
	return env.Error.Code
}

// TestRouteMethodContract holds every route of the table to its method: a
// wrong method gets a 405 method_not_allowed envelope naming the allowed
// methods, and a GET route also answers HEAD.
func TestRouteMethodContract(t *testing.T) {
	_, ts := newTestServer(t)
	for _, rt := range routes {
		wrong, allow := http.MethodGet, rt.Method
		if rt.Method == http.MethodGet {
			wrong, allow = http.MethodPost, "GET, HEAD"
		}
		resp, body := request(t, wrong, ts.URL+rt.Pattern)
		if resp.StatusCode != http.StatusMethodNotAllowed || envelopeCode(body) != "method_not_allowed" {
			t.Errorf("%s %s: %d %s, want 405 method_not_allowed", wrong, rt.Pattern, resp.StatusCode, body)
		}
		if got := resp.Header.Get("Allow"); got != allow {
			t.Errorf("%s %s: Allow %q, want %q", wrong, rt.Pattern, got, allow)
		}
		if rt.Method == http.MethodGet {
			if resp, _ := request(t, http.MethodHead, ts.URL+rt.Pattern); resp.StatusCode == http.StatusMethodNotAllowed {
				t.Errorf("HEAD %s: 405", rt.Pattern)
			}
		}
	}
}
