package lockd

import (
	"bufio"
	"strings"
	"testing"
)

// TestReadLineReusesLongLineStorage: lines longer than the reader's
// buffer are assembled in the storage the caller hands back, so a
// connection that keeps receiving them allocates for the first only;
// short lines still alias the reader's buffer.
func TestReadLineReusesLongLineStorage(t *testing.T) {
	long1, long2 := strings.Repeat("a", 100), strings.Repeat("b", 90)
	br := bufio.NewReaderSize(strings.NewReader("short\n"+long1+"\n"+long2+"\nx\n"), 16)
	var keep []byte
	next := func(want string) []byte {
		t.Helper()
		line, err := readLine(br, 0, keep)
		if err != nil {
			t.Fatal(err)
		}
		if string(line) != want+"\n" {
			t.Fatalf("read %q, want %q", line, want+"\n")
		}
		if len(line) > br.Size() {
			keep = line[:0]
		}
		return line
	}
	next("short")
	first := next(long1)
	second := next(long2)
	if &first[0] != &second[0] {
		t.Fatal("second long line was assembled in new storage")
	}
	next("x")

	src, text := strings.NewReader(""), long1+"\n"
	if allocs := testing.AllocsPerRun(20, func() {
		src.Reset(text)
		br.Reset(src)
		if got, err := readLine(br, 0, keep); err != nil || len(got) != len(long1)+1 {
			t.Fatalf("read %q, %v", got, err)
		}
	}); allocs != 0 {
		t.Fatalf("reading a long line into reused storage allocates %v times", allocs)
	}
}
