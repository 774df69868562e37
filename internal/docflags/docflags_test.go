package docflags

import (
	"reflect"
	"testing"
)

func TestInvocations(t *testing.T) {
	readme := []byte("Prose mentioning hyalined -coalesce is not a command.\n" +
		"```sh\n" +
		"go run ./cmd/hyalined -addr :4980 -maxconns=8 [-coalesce] &   # a comment -nope\n" +
		"go run ./cmd/hyalineload -addr 127.0.0.1:4980 -conns 64 | grep hyalined\n" +
		"/tmp/hyalined -bytes \\\n" +
		"    -shards 8\n" +
		"```\n" +
		"```text\n" +
		"hyalined -ignored\n" +
		"```\n" +
		"```console\n" +
		"$ hyalined --metrics 127.0.0.1:9100 &\n" +
		"hyalined -output-line\n" +
		"```\n")
	want := [][]string{{"addr", "maxconns", "coalesce"}, {"bytes", "shards"}, {"metrics"}}
	if got := Invocations(readme, "hyalined"); !reflect.DeepEqual(got, want) {
		t.Errorf("Invocations = %q, want %q", got, want)
	}
	if got := Invocations(readme, "hyalineload"); !reflect.DeepEqual(got, [][]string{{"addr", "conns"}}) {
		t.Errorf("hyalineload invocations = %q", got)
	}
}
