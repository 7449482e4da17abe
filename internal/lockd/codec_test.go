package lockd_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/lockd"
)

// encoding/json is the reference for the wire codec: for any input the
// codec must accept and reject what json.Unmarshal does, decode the same
// value with the same error, and encode any value exactly as
// json.Marshal does, plus the line's '\n'.

// Lines as the three speakers put them on the wire.
var (
	acquireReq  = `{"id":7,"op":"acquire","session":3,"lock":"hot-1","attempt":1,"trace_id":"5f0c2a9e8b7d6c41","parent_span":"1a2b3c4d5e6f7081","hlc":115224746733543424}`
	acquireResp = `{"id":7,"ok":true,"session":3,"token":42,"server_span":"0b1c2d3e4f506172","hlc":115224746733543431,"wall_ns":1760848841123456789}`
	releaseReq  = `{"id":8,"op":"release","session":3,"lock":"hot-1","hlc":115224746733543440,"token":42}`
	releaseResp = `{"id":8,"ok":true,"session":3,"token":42,"hlc":115224746733543447,"wall_ns":1760848841123502211}`
)

var requestSeeds = []string{
	acquireReq,
	releaseReq,
	`{"id":1,"op":"hello","client":"caller-0","lease_ms":2000,"hlc":115224746733540000}`,
	`{"id":2,"op":"hello","session":3,"client":"caller-0","lease_ms":2000}`,
	`{"id":9,"op":"heartbeat","session":3,"hlc":115224746733543500}`,
	`{"id":10,"op":"stat","session":3}`,
	`{"id":11,"op":"reconfigure","session":3,"lock":"hot-1","policy":"spin","sched":"priority"}`,
	`{"id":12,"op":"acquire","session":3,"lock":"q","wait_ms":250,"wait_hint":"try","prio":-4,"attempt":3}`,
	// Peer ops travel as binary frames; as JSON lines they are ops the
	// server does not know.
	`{"id":40,"op":"repl-append","hlc":115224746733544000}`,
	`{"id":41,"op":"repl-vote"}`,
	`{"id":42,"op":"repl-snapshot","session":3}`,
	`{"id":43,"op":"release","session":3,"lock":"hot-1","token":18446744073709551615}`,
	`{"id":44,"op":"heartbeat","session":18446744073709551615,"hlc":1}`,
	`{"id":45,"op":"acquire","session":3,"lock":"L","wait_ms":-1,"prio":9223372036854775807,"attempt":-2}`,
	`{"id":46,"op":"reconfigure","session":3,"lock":"hot-1","sched":"handoff"}`,
	`{"id":47,"op":"bye","session":3}`,
	`{"id":48,"op":"hello","lease_ms":true}`,
	`{"id":49,"op":"acquire","attempt":-1}`,
	`{"id":50,"op":"release","token":3,"token":4,"lock":"a","lock":"b"}`,
	`{"id":13,"op":"exorcise"}` + "\n",
	// Constructs outside the canonical form.
	`{"id":1,"op":"acquire","lock":"a\"b\\c\n"}`,
	"{\"id\":1,\"op\":\"hello\",\"client\":\"\xff\xfe\"}",
	`{"id":1,"op":"hello","client":"<a&b>  "}`,
	`{"ID":1,"Op":"hello","LOCK":"x","Lease_MS":5}`,
	`{"id":1,"op":"hello","ſession":4,"Key":1}`,
	`{"id":null,"op":null,"lock":null}`,
	`{"id":1e3,"op":"x"}`,
	`{"id":-1,"op":"x"}`,
	`{"id":18446744073709551615,"prio":-9223372036854775808}`,
	`{"id":18446744073709551616}`,
	`{"prio":9223372036854775808}`,
	`{"id":01}`,
	`{"id":1.0}`,
	`{ "id" : 1 , "op" : "hello" }`,
	` {"id":1}`,
	`{"id":1}x`,
	"{\"id\":1}\r\n\n",
	`{}`,
	`{"id":1,}`,
	`{"id":1,"id":2,"op":"a","op":"b"}`,
	`{"lock":"a","lock":"b","session":1,"session":2}`,
	`{"lock":[]}`,
	`{"lock":{}}`,
	`{"lock":null,"client":null}`,
	`{"trace_id":"!!","parent_span":""}`,
	`{"policy":["spin"],}`,
	`{"unknown":{"nested":[1,2,{"x":null}]},"id":5}`,
	`{"id":"7"}`,
	`{"op":7}`,
	`[]`,
	`null`,
	``,
	`{"id":1`,
}

var responseSeeds = []string{
	acquireResp,
	releaseResp,
	`{"id":1,"ok":true,"session":3,"lease_ms":2000,"hlc":115224746733540007,"wall_ns":1760848841100000000}`,
	`{"id":2,"ok":true,"session":3,"lease_ms":2000,"resumed":true}`,
	`{"id":7,"ok":true,"session":3,"token":43,"recovered":true,"server_span":"0b1c2d3e4f506173"}`,
	`{"id":12,"ok":false,"code":"overloaded","err":"lock hot-1: 64 waiters","retry_after_ms":20}`,
	`{"id":8,"ok":true,"code":"stale-token","token":41}`,
	`{"id":11,"ok":true,"pending":true}`,
	`{"id":5,"ok":false,"code":"not-leader","err":"not the leader","hlc":115224746733543431,"term":2,"leader_addr":"127.0.0.1:7701"}`,
	`{"id":40,"ok":true,"hlc":115224746733544007,"wall_ns":1760848841200000000,"term":2,"next_index":41}`,
	`{"id":10,"ok":true,"stat":{"sessions":2,"locks":[{"name":"hot-1","held":true,"holder_session":3,"token":42,"waiting":1,"sheds":0}],"counters":{"sessions_opened":2,"sessions_resumed":0,"sessions_expired":0,"forced_releases":0,"recovered_grants":0,"sheds":0,"retries":0,"acquires":42,"releases":41,"stale_releases":0,"acquire_timeouts":0,"reconfigurations":0}}}`,
	`{"id":10,"ok":true,"stat":{"sessions":0,"locks":null,"counters":{}}}`,
	`{"id":0,"ok":false,"code":"bad-request","err":"malformed request: invalid character 'x' looking for beginning of value"}`,
	`{"id":3,"ok":false,"code":"warp-drive"}`,
	`{"id":1,"ok":"true"}`,
	`{"id":1,"ok":tru}`,
	`{"id":1,"ok":true,"ok":false}`,
	`{"id":1,"OK":true,"Code":"expired"}`,
	`{"id":1,"ok":true,"err":"<b> 😀 �"}`,
	"{\"id\":1,\"ok\":false,\"err\":\"\xe2\x80\xa8\xc3\"}",
	`{"id":1,"ok":true,"wall_ns":-1760848841200000000}`,
	`{"id":1,"ok":true,"stat":null}`,
}

func FuzzParseRequest(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var got, want lockd.Request
		gotErr := lockd.ParseRequest(line, &got)
		wantErr := json.Unmarshal(line, &want)
		checkDecode(t, line, gotErr, wantErr, got, want)
		if gotErr == nil {
			checkRequestEncoding(t, &got)
		}
	})
}

func FuzzParseResponse(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var got, want lockd.Response
		gotErr := lockd.ParseResponse(line, &got)
		wantErr := json.Unmarshal(line, &want)
		checkDecode(t, line, gotErr, wantErr, got, want)
		if gotErr == nil {
			checkResponseEncoding(t, &got)
		}
	})
}

func checkDecode(t *testing.T, line []byte, gotErr, wantErr error, got, want any) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("line %q: codec error %v, encoding/json error %v", line, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("line %q: codec decoded\n%#v\nencoding/json decoded\n%#v", line, got, want)
	}
}

// checkRequestEncoding holds AppendRequest to json.Marshal, and the
// decoder to json.Unmarshal on that canonical line — the form the
// decoder walks itself rather than handing to encoding/json.
func checkRequestEncoding(t *testing.T, r *lockd.Request) {
	t.Helper()
	got := lockd.AppendRequest([]byte("prefix"), r)
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	if !bytes.Equal(got, append([]byte("prefix"), append(want, '\n')...)) {
		t.Fatalf("AppendRequest(%#v)\n = %s\nwant %s", r, got, want)
	}
	line := got[len("prefix"):]
	var back, ref lockd.Request
	checkDecode(t, line, lockd.ParseRequest(line, &back), json.Unmarshal(line, &ref), back, ref)
}

func checkResponseEncoding(t *testing.T, r *lockd.Response) {
	t.Helper()
	got := lockd.AppendResponse([]byte("prefix"), r)
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	if !bytes.Equal(got, append([]byte("prefix"), append(want, '\n')...)) {
		t.Fatalf("AppendResponse(%#v)\n = %s\nwant %s", r, got, want)
	}
	line := got[len("prefix"):]
	var back, ref lockd.Response
	checkDecode(t, line, lockd.ParseResponse(line, &back), json.Unmarshal(line, &ref), back, ref)
}

// TestCodecEveryField sets each field of Request and Response alone,
// then all together, to values that exercise the encoder's special
// cases, so a field added to either struct but not to the codec fails
// here rather than on the wire.
func TestCodecEveryField(t *testing.T) {
	strs := []string{"hot-1", "a\"b\\c\n\t\b\f\x01", "<a&b>", "  ", "\xff\xfeok", "a\xc3", "\xed\xa0\x80", "é✓\u2028\u2029", "\x7f"}
	for _, s := range strs {
		var req lockd.Request
		for i := 0; i < reflect.TypeOf(req).NumField(); i++ {
			one := lockd.Request{}
			setField(t, reflect.ValueOf(&one).Elem().Field(i), s)
			setField(t, reflect.ValueOf(&req).Elem().Field(i), s)
			checkRequestEncoding(t, &one)
		}
		checkRequestEncoding(t, &req)

		var resp lockd.Response
		for i := 0; i < reflect.TypeOf(resp).NumField(); i++ {
			one := lockd.Response{}
			setField(t, reflect.ValueOf(&one).Elem().Field(i), s)
			setField(t, reflect.ValueOf(&resp).Elem().Field(i), s)
			checkResponseEncoding(t, &one)
		}
		checkResponseEncoding(t, &resp)
	}
}

// setField gives v a non-zero value of its kind, using s for strings.
func setField(t *testing.T, v reflect.Value, s string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Uint64:
		v.SetUint(18446744073709551615)
	case reflect.Int, reflect.Int64:
		v.SetInt(-42)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(s)
	case reflect.Pointer: // Stat
		v.Set(reflect.ValueOf(&lockd.Stat{Sessions: 1, Locks: []lockd.LockStat{{Name: s, Held: true, Token: 9}}}))
	default:
		t.Fatalf("no test value for field kind %s", v.Kind())
	}
}

// TestCodecHotPathAllocs pins the point of the codec: encoding into a
// reused buffer allocates nothing, and decoding the canonical hot lines
// allocates only the strings the message carries (lock name and trace
// ids; op and code names are the package constants).
func TestCodecHotPathAllocs(t *testing.T) {
	cases := []struct {
		line  string
		parse func([]byte) error
		max   float64
	}{
		{acquireReq, func(b []byte) error { var r lockd.Request; return lockd.ParseRequest(b, &r) }, 3},
		{releaseReq, func(b []byte) error { var r lockd.Request; return lockd.ParseRequest(b, &r) }, 1},
		{acquireResp, func(b []byte) error { var r lockd.Response; return lockd.ParseResponse(b, &r) }, 1},
		{releaseResp, func(b []byte) error { var r lockd.Response; return lockd.ParseResponse(b, &r) }, 0},
	}
	for _, c := range cases {
		line := []byte(c.line + "\n")
		if n := testing.AllocsPerRun(100, func() {
			if err := c.parse(line); err != nil {
				t.Fatal(err)
			}
		}); n > c.max {
			t.Errorf("decoding %s: %v allocs, want <= %v", c.line, n, c.max)
		}
	}
	var req lockd.Request
	var resp lockd.Response
	if err := lockd.ParseRequest([]byte(acquireReq), &req); err != nil {
		t.Fatal(err)
	}
	if err := lockd.ParseResponse([]byte(acquireResp), &resp); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() {
		buf = lockd.AppendRequest(buf[:0], &req)
		buf = lockd.AppendResponse(buf[:0], &resp)
	}); n != 0 {
		t.Errorf("encoding into a reused buffer: %v allocs, want 0", n)
	}
}

// BenchmarkWireCodec decodes and re-encodes one acquire/release
// request or response line per op, through the codec and, for
// comparison, through encoding/json (Unmarshal + Marshal).
func BenchmarkWireCodec(b *testing.B) {
	lines := []struct {
		name, line string
		isReq      bool
	}{
		{"acquire-request", acquireReq, true},
		{"acquire-response", acquireResp, false},
		{"release-request", releaseReq, true},
		{"release-response", releaseResp, false},
	}
	for _, l := range lines {
		line, isReq := []byte(l.line+"\n"), l.isReq
		b.Run(l.name+"/codec", func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 512)
			for i := 0; i < b.N; i++ {
				if isReq {
					var r lockd.Request
					if err := lockd.ParseRequest(line, &r); err != nil {
						b.Fatal(err)
					}
					buf = lockd.AppendRequest(buf[:0], &r)
				} else {
					var r lockd.Response
					if err := lockd.ParseResponse(line, &r); err != nil {
						b.Fatal(err)
					}
					buf = lockd.AppendResponse(buf[:0], &r)
				}
			}
		})
		b.Run(l.name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if isReq {
					var r lockd.Request
					if err = json.Unmarshal(line, &r); err == nil {
						_, err = json.Marshal(&r)
					}
				} else {
					var r lockd.Response
					if err = json.Unmarshal(line, &r); err == nil {
						_, err = json.Marshal(&r)
					}
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
