#!/usr/bin/env bash
# End-to-end checks of the bytecap command line: every command's --help, a
# synthetic corpus through synth, build, inspect, train, eval and bench,
# outputs through pipes and /dev/stdin, and the exact `error:` lines of
# refused inputs (hostile captures, bad settings, a corrupt record).
#
#     scripts/console_checks.sh                                   # installed script
#     PYTHONPATH="$PWD/src" scripts/console_checks.sh python -m bytecap.cli
#
# The arguments are the command to check, `bytecap` when none are given.
# Outputs go to a temporary directory, removed on exit.
set -e
[ $# -gt 0 ] || set -- bytecap
cli=("$@")
bytecap() { command "${cli[@]}" "$@"; }

for cmd in synth build inspect train eval bench; do bytecap "$cmd" --help > /dev/null || exit 1; done
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
bytecap synth --out "$work/corpus" --sessions 3
# the installed package writes the corpus tests/test_synth.py pins byte
# for byte (test_bytes_are_pinned)
bytecap synth --out "$work/pinned" --sessions 3 --seed 9
(cd "$work/pinned" && sha256sum -c - <<'SUMS'
d133d32b5fd2cf630f52c4164f6afc5bdb509bd77eaa3ce01d8afd6c9203f2ff  benign.pcap
16ba03bb94c6b596ef3317150546714f650ab4d1055aa4ba408f2d1c0c5baf02  malicious.pcap
SUMS
)
# and the multi corpus, whose 21- and 25-value byte bands reject raw bytes:
# one sha256 over its 12 pcaps in label order
bytecap synth --out "$work/multi" --task multi --sessions 2 --seed 9
test "$(while IFS=, read -r path _; do cat "$path"; done < "$work/multi/labels.txt" \
        | sha256sum | cut -d' ' -f1)" \
    = 8d3ad0eb28a710431445444bf8d0151f09d0eb2848defaff728718abf67ce7b1
bytecap build --labels "$work/corpus/labels.txt" --out "$work/session.ftld"
# a corpus under a relative directory whose name starts with white space
# builds and inspects from its own labels file
(cd "$work" && bytecap synth --out ' sp' --sessions 3 > /dev/null \
  && bytecap build --labels ' sp/labels.txt' --out sp.ftld 2> sp-build.err \
  && bytecap inspect --labels ' sp/labels.txt' > sp-inspect.out)
grep -F "sp.ftld: 6 samples (benign=3, malicious=3)" "$work/sp-build.err"
grep -qxF "files          2" "$work/sp-inspect.out"
# the full grid twice into one directory: the second build passes the
# overwrite guard and must write the same 12 files byte for byte
bytecap build --labels "$work/corpus/labels.txt" --out "$work/grid" --all-views --all-categories
cp -r "$work/grid" "$work/grid-first"
bytecap build --labels "$work/corpus/labels.txt" --out "$work/grid" --all-views --all-categories
test "$(ls "$work/grid-first" | wc -l)" -eq 12
for f in "$work"/grid-first/*.ftld; do cmp "$f" "$work/grid/$(basename "$f")" || exit 1; done
# an existing dataset of another sample length refuses the whole grid
# before any capture is read or any file is written
mkdir "$work/mixgrid"
bytecap build --labels "$work/corpus/labels.txt" --view flow --category all --n 64 --out "$work/mixgrid/flow_all_headers.ftld"
cp "$work/mixgrid/flow_all_headers.ftld" "$work/flow64.ftld"
if bytecap build --labels "$work/corpus/labels.txt" --out "$work/mixgrid" --all-views --all-categories 2> "$work/mixgrid.err"; then
  echo "a grid over a dataset of another sample length should be refused"; exit 1
fi
grep "^error:" "$work/mixgrid.err" | grep -F "$work/mixgrid/flow_all_headers.ftld"
test "$(ls "$work/mixgrid")" = "flow_all_headers.ftld"
cmp "$work/flow64.ftld" "$work/mixgrid/flow_all_headers.ftld"
bytecap inspect --labels "$work/corpus/labels.txt"
bytecap train "$work/session.ftld" --epochs 1 --out "$work/model.ftlw"
bytecap eval "$work/session.ftld" "$work/model.ftlw" --confusion
# the table profile at N=115 reads 112 of the 115 bytes: a second
# read length through train and eval
bytecap train "$work/session.ftld" --profile table --epochs 1 --out "$work/table.ftlw"
bytecap eval "$work/session.ftld" "$work/table.ftlw"
# a dataset or weights file piped in through /dev/stdin reads as the file does
bytecap eval "$work/session.ftld" "$work/model.ftlw" > "$work/eval-file.out"
cat "$work/session.ftld" | bytecap eval /dev/stdin "$work/model.ftlw" > "$work/eval-dataset-stdin.out"
cmp "$work/eval-file.out" "$work/eval-dataset-stdin.out"
cat "$work/model.ftlw" | bytecap eval "$work/session.ftld" /dev/stdin > "$work/eval-weights-stdin.out"
cmp "$work/eval-file.out" "$work/eval-weights-stdin.out"
# --out may name a pipe: the build writes into it without reading it first
# and stdout carries only the dataset, the summary line going to stderr
bytecap build --labels "$work/corpus/labels.txt" --out /dev/stdout | cmp - "$work/session.ftld"
# so may train's: the weights are the whole stream, the table goes to
# stderr and no history file is made beside /dev/stdout
bytecap train "$work/session.ftld" --epochs 1 --out /dev/stdout | cmp - "$work/model.ftlw"
test ! -e /dev/stdout.history.jsonl
# `bytecap bench` with the given arguments, its stderr shown and then
# checked: no line may be a Warning, as the warm-up trains on a row of
# every class and the timed sets hold every class
bench_warns_of_nothing() {
  local status=0
  bytecap bench "$@" 2> "$work/bench.err" || status=$?
  cat "$work/bench.err" >&2
  if grep -qF Warning "$work/bench.err"; then echo "bytecap bench $* warned" >&2; exit 1; fi
  return "$status"
}
bench_warns_of_nothing --labels "$work/corpus/labels.txt" --epochs 1 --views session --out "$work/bench.csv"
test -s "$work/bench.csv"
# so may bench's: stdout, a pipe here, holds only the CSV, its header and
# one row per pipeline, and the table goes to stderr
csv="$(bench_warns_of_nothing --labels "$work/corpus/labels.txt" --epochs 1 --views session --out /dev/stdout)"
test "$(printf '%s\n' "$csv" | wc -l)" -eq 3
test "$(printf '%s\n' "$csv" | head -n 1)" = "pipeline,build_s,train_s,test_s,accuracy"
# the table profile at its own input length, warm-up included
bench_warns_of_nothing --labels "$work/corpus/labels.txt" --profile table --n 20 --epochs 1 --views session
# train takes its task from the dataset's class table: a multi corpus
# trains without --task, and train refuses the flag as one it does not read
bytecap synth --task multi --sessions 2 --out "$work/multi"
bytecap build --labels "$work/multi/labels.txt" --task multi --out "$work/multi.ftld"
bytecap train "$work/multi.ftld" --epochs 1 --out "$work/multi.ftlw"
bytecap eval "$work/multi.ftld" "$work/multi.ftlw"
# and benches: the warm-up's rows cover all 12 classes
bench_warns_of_nothing --labels "$work/multi/labels.txt" --task multi --epochs 1 --views session
set +e
bytecap train "$work/multi.ftld" --epochs 1 --task binary --out "$work/task.ftlw" 2> "$work/task.err"
status=$?
set -e
test "$status" -eq 2
grep -F "unrecognized arguments: --task binary" "$work/task.err"
test ! -e "$work/task.ftlw"
# a one-record capture of link type 101 (raw IP) is refused, naming the file
python -c 'import struct, sys; open(sys.argv[1], "wb").write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101) + struct.pack("<IIII", 0, 0, 4, 4) + b"\x45\x00\x00\x04")' "$work/raw.pcap"
echo "$work/raw.pcap,benign" > "$work/raw.txt"
if bytecap inspect --labels "$work/raw.txt" 2> "$work/raw.err"; then
  echo "inspect should refuse a link-type-101 capture"; exit 1
fi
grep "^error:" "$work/raw.err" | grep -F "$work/raw.pcap"
if bytecap synth --out "$work/none" --sessions 0; then
  echo "synth --sessions 0 should fail"; exit 1
fi
# a sample length below 1 is refused before any file is written
: > "$work/empty.txt"
if bytecap build --labels "$work/empty.txt" --n 0 --out "$work/zero.ftld" 2> "$work/zero.err"; then
  echo "build --n 0 should fail"; exit 1
fi
grep "^error:" "$work/zero.err"
test ! -e "$work/zero.ftld"
# out-of-range integer settings are refused before any capture is
# read and before any directory is made
if bytecap build --labels "$work/corpus/labels.txt" --n 0 --all-views --all-categories --out "$work/zgrid" 2> "$work/zgrid.err"; then
  echo "build --n 0 --all-views --all-categories should fail"; exit 1
fi
grep "^error:" "$work/zgrid.err"
test ! -e "$work/zgrid"
if bytecap synth --seed -1 --out "$work/neg" 2> "$work/neg.err"; then
  echo "synth --seed -1 should fail"; exit 1
fi
grep "^error:" "$work/neg.err" | grep -F -- "--seed"
test ! -e "$work/neg"
# a training setting out of range is refused with the rule a ModelConfig
# states when it is made, after the flag's name
set +e
bytecap train "$work/session.ftld" --learning-rate 0 --out "$work/lr0.ftlw" 2> "$work/lr0.err"
status=$?
set -e
test "$status" -eq 1
refusal() { python -c "from dataclasses import replace
from bytecap.nn import default_config
try:
    $1
except ValueError as e:
    print(e)"; }
rule="$(refusal 'replace(default_config(), learning_rate=0.0)')"
test "$(cat "$work/lr0.err")" = "error: --learning-rate: $rule"
test ! -e "$work/lr0.ftlw"
# default_config's own overrides make the config, which refuses them alike
test "$(refusal 'default_config(learning_rate=0)')" = "${rule%, got *}, got 0"
# a flag's text is converted as a config line's is: a value of the wrong
# type or an unknown choice exits 1 with the text parse_config gives that
# line, after the flag's name (argparse's usage error would exit 2)
line_text() {
  python -c 'import sys
from bytecap.cli import parse_config
try:
    parse_config(sys.argv[2], sys.argv[1])
except ValueError as e:
    print(str(e).removeprefix("config line 1: "))' "$@"
}
set +e
bytecap train "$work/session.ftld" --epochs x --out "$work/x.ftlw" 2> "$work/x.err"
status=$?
set -e
test "$status" -eq 1
test "$(cat "$work/x.err")" = "error: --epochs: $(line_text train 'epochs = x')"
test ! -e "$work/x.ftlw"
set +e
bytecap build --labels "$work/corpus/labels.txt" --view bogus --out "$work/bogus.ftld" 2> "$work/bogus.err"
status=$?
set -e
test "$status" -eq 1
test "$(cat "$work/bogus.err")" = "error: --view: $(line_text build 'view = bogus')"
test ! -e "$work/bogus.ftld"
# a config file saved with a leading byte-order mark reads as one without
printf '\357\273\277epochs = 1\n' > "$work/bom.conf"
bytecap train "$work/session.ftld" --config "$work/bom.conf" --out "$work/bom.ftlw"
cmp "$work/bom.ftlw" "$work/model.ftlw"
# a config value of the wrong type is an error naming its line
echo "epochs = 1e3" > "$work/bad.conf"
if bytecap train "$work/session.ftld" --config "$work/bad.conf" --out "$work/bad.ftlw" 2> "$work/bad.err"; then
  echo "train should refuse epochs = 1e3"; exit 1
fi
grep -F "error: config line 1" "$work/bad.err"
# the synthetic corpus is IPv4 only, so a capture of the frame shapes it
# lacks runs the dissector end to end: VLAN-tagged IPv4 and its untagged
# reply, IPv6 TCP and UDP, a non-first fragment, ARP and a runt
python - "$work/mixed.pcap" <<'EOF'
import struct, sys
from bytecap import write_pcap

def eth(ethertype, *vlan_ids):
    tags = b"".join(struct.pack(">HH", 0x8100, v) for v in vlan_ids)
    return b"\xaa" * 6 + b"\xbb" * 6 + tags + struct.pack(">H", ethertype)

def ipv4(src, dst, proto, frag=0):
    return struct.pack(">BBHHHBBH4s4s", 0x45, 0, 40, 1, frag, 64, proto, 0, src, dst)

def ipv6(next_header):
    return struct.pack(">IHBB", 6 << 28, 20, next_header, 64) + bytes(range(32))

def tcp(sport, dport):
    return struct.pack(">HHIIBBHHH", sport, dport, 1, 2, 0x50, 0x18, 65535, 0, 0)

a, b = bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2])
frames = [eth(0x0800, 7) + ipv4(a, b, 6) + tcp(5000, 80),
          eth(0x0800) + ipv4(b, a, 6) + tcp(80, 5000),
          eth(0x86DD) + ipv6(6) + tcp(5000, 80),
          eth(0x86DD) + ipv6(17) + struct.pack(">HHHH", 53, 53, 8, 0),
          eth(0x0800) + ipv4(a, b, 17, frag=185) + b"x" * 8,
          eth(0x0806) + bytes(28),
          b"\x01" * 5]
write_pcap(sys.argv[1], [(i, 0, f) for i, f in enumerate(frames)])
EOF
echo "$work/mixed.pcap,benign" > "$work/mixed.txt"
bytecap inspect --labels "$work/mixed.txt" > "$work/mixed.out"
cat "$work/mixed.out"
for line in "packets        7" "non-ip packets 2" "packet units   5" \
            "flow units     5" "session units  4"; do
  grep -qxF "$line" "$work/mixed.out" || { echo "inspect lacks '$line'"; exit 1; }
done
bytecap build --labels "$work/mixed.txt" --out "$work/mixed-grid" --all-views --all-categories 2> "$work/mixed-build.err" > "$work/mixed-build.out"
test ! -s "$work/mixed-build.out"
test "$(grep -c '/packet_.*: 5 samples' "$work/mixed-build.err")" -eq 4
test "$(grep -c '/flow_.*: 5 samples' "$work/mixed-build.err")" -eq 4
test "$(grep -c '/session_.*: 4 samples' "$work/mixed-build.err")" -eq 4
# an IPv6 session whose two addresses differ only in their last byte,
# and an IPv4 flow beside an IPv6 one whose addresses are the IPv4 bytes
# followed by zeros: the session swap runs on IPv6, and only the version
# byte of the flow key keeps the last two apart
python - "$work/v6.pcap" <<'EOF'
import struct, sys
from bytecap import write_pcap

def tcp(src, dst, sport, dport):
    if len(src) == 4:
        ethertype = 0x0800
        ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 40, 1, 0, 64, 6, 0, src, dst)
    else:
        ethertype = 0x86DD
        ip = struct.pack(">IHBB", 6 << 28, 20, 6, 64) + src + dst
    return (b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", ethertype) + ip
            + struct.pack(">HHIIBBHHH", sport, dport, 1, 2, 0x50, 0x18, 65535, 0, 0))

lo, hi = bytes(range(15)) + b"\x01", bytes(range(15)) + b"\x02"
a, b = bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2])
frames = [tcp(hi, lo, 5000, 80), tcp(lo, hi, 80, 5000),
          tcp(a, b, 5000, 80), tcp(a + bytes(12), b + bytes(12), 5000, 80)]
write_pcap(sys.argv[1], [(i, 0, f) for i, f in enumerate(frames)])
EOF
echo "$work/v6.pcap,benign" > "$work/v6.txt"
bytecap inspect --labels "$work/v6.txt" > "$work/v6.out"
cat "$work/v6.out"
for line in "packets        4" "non-ip packets 0" "packet units   4" \
            "flow units     4" "session units  3"; do
  grep -qxF "$line" "$work/v6.out" || { echo "inspect lacks '$line'"; exit 1; }
done
# a capture piped in through /dev/stdin reads as the file does
echo "$work/corpus/benign.pcap,benign" > "$work/file.txt"
echo "/dev/stdin,benign" > "$work/stdin.txt"
bytecap inspect --labels "$work/file.txt" > "$work/file.out"
cat "$work/corpus/benign.pcap" | bytecap inspect --labels "$work/stdin.txt" > "$work/stdin.out"
cmp "$work/file.out" "$work/stdin.out"
# a capture cut inside its last record (the 5-byte runt) names the
# file and the last record read whole
head -c -3 "$work/mixed.pcap" > "$work/cut.pcap"
echo "$work/cut.pcap,benign" > "$work/cut.txt"
if bytecap inspect --labels "$work/cut.txt" 2> "$work/cut.err"; then
  echo "inspect should refuse a capture cut mid-record"; exit 1
fi
grep -qxF "error: $work/cut.pcap: truncated record body after record 5" "$work/cut.err"
# cut inside the runt's record header: 8 of its 16 bytes are left
head -c -13 "$work/mixed.pcap" > "$work/cut-header.pcap"
echo "$work/cut-header.pcap,benign" > "$work/cut-header.txt"
if bytecap inspect --labels "$work/cut-header.txt" 2> "$work/cut-header.err"; then
  echo "inspect should refuse a capture cut inside a record header"; exit 1
fi
grep -qxF "error: $work/cut-header.pcap: truncated record header after record 5" "$work/cut-header.err"
# record 3 (the 62-byte IPv6 UDP frame) claims one byte more than
# its orig_len: the walk names it even though every body fits
python - "$work/mixed.pcap" "$work/corrupt.pcap" <<'EOF'
import struct, sys

blob = bytearray(open(sys.argv[1], "rb").read())
at = 24
for _ in range(3):
    at += 16 + struct.unpack_from("<I", blob, at + 8)[0]
struct.pack_into("<I", blob, at + 12, struct.unpack_from("<I", blob, at + 8)[0] - 1)
open(sys.argv[2], "wb").write(blob)
EOF
echo "$work/corrupt.pcap,benign" > "$work/corrupt.txt"
if bytecap inspect --labels "$work/corrupt.txt" 2> "$work/corrupt.err"; then
  echo "inspect should refuse a record with incl_len above orig_len"; exit 1
fi
grep -qxF "error: $work/corrupt.pcap: record 3 header is corrupt (incl_len=62, orig_len=61, snaplen=65535)" "$work/corrupt.err"
# write_pcap refuses a record its own reader would refuse, before
# the file is created
if python -c 'import sys; from bytecap import write_pcap; write_pcap(sys.argv[1], [(0, 0, bytes(70000))])' "$work/big.pcap" 2> "$work/big.err"; then
  echo "write_pcap should refuse a record past its snaplen"; exit 1
fi
grep -F "record 0 holds 70000 bytes" "$work/big.err"
test ! -e "$work/big.pcap"
