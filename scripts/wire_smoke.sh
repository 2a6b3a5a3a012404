#!/usr/bin/env bash
# wire_smoke.sh — end-to-end smoke of the netio wire path against a live
# daemon: boot eisrd with UDP overlay links (ingress on interface 0,
# egress on interface 1 aimed at the harness sink), push 10k
# UDP-encapsulated IP datagrams through the full gate/classifier path
# with `eisrbench -exp wire`, and fail on any unexplained loss.
# eisrbench exits nonzero when packets are lost; `pmgr stats` must show
# no interface that ran its mbuf pool dry (MbufFallback 0), `pmgr links`
# must show the wire in the operator report, /metrics must export every
# loss in the one drop family (eisr_drops_total) and no other family
# with "drop" in its name, and the event journal must have recorded the
# boot. Readiness comes from the /healthz probe (200 only
# while the router serves), not from sleeping.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
BIN=bin
CTL=127.0.0.1:14242
METRICS=127.0.0.1:14280
INGRESS=127.0.0.1:19001
EGRESS=127.0.0.1:19002
SINK=127.0.0.1:19102
PACKETS=${WIRE_PACKETS:-10000}

$GO build -o $BIN/eisrd ./cmd/eisrd
$GO build -o $BIN/eisrbench ./cmd/eisrbench
$GO build -o $BIN/pmgr ./cmd/pmgr

CONF=$(mktemp)
DAEMON_PID=
cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -f "$CONF"
}
trap cleanup EXIT

# The paper's boot configuration script: a drr instance bound match-all
# at the sched gate, default route out the wired egress interface.
cat > "$CONF" <<'EOF'
load drr
create drr iface=1
register drr drr0 'filter=<*, *, *, *, *, *>' weight=2
route add 0.0.0.0/0 dev 1
EOF

$BIN/eisrd -ctl $CTL -metrics $METRICS -router-id 1 -ifaces 2 -config "$CONF" \
    -link "0=$INGRESS," -link "1=$EGRESS,$SINK" &
DAEMON_PID=$!

# Readiness: /healthz flips to 200 only once Start has completed — the
# boot script has run and forwarding workers and wire drivers are up.
for i in $(seq 1 100); do
    if curl -fsS -o /dev/null "http://$METRICS/healthz" 2>/dev/null; then
        break
    fi
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
        echo "wire-smoke: eisrd died during startup" >&2
        exit 1
    fi
    if [ "$i" -eq 100 ]; then
        echo "wire-smoke: /healthz never went ready" >&2
        exit 1
    fi
    sleep 0.1
done

echo "wire-smoke: pushing $PACKETS packets through eisrd ($INGRESS -> $SINK)"
$BIN/eisrbench -exp wire -wire-daemon $INGRESS -wire-sink $SINK -wire-packets "$PACKETS"

# Every received datagram landed in a pooled mbuf: a heap fallback
# means more packets in flight than the pool depth, or a missing
# release upstream.
echo "wire-smoke: pmgr stats"
STATS=$($BIN/pmgr -s $CTL stats)
echo "$STATS"
if ! echo "$STATS" | grep -q '"MbufFallback"'; then
    echo "wire-smoke: pmgr stats does not report the interface counters" >&2
    exit 1
fi
if echo "$STATS" | grep -Eq '"MbufFallback": [1-9]'; then
    echo "wire-smoke: an interface fell back to heap receive buffers" >&2
    exit 1
fi

# Every lost packet is one series of one family: print the drops and
# fail if any other family with "drop" in its name is exported.
echo "wire-smoke: /metrics drops"
METRICS_OUT=$(curl -fsS "http://$METRICS/metrics")
echo "$METRICS_OUT" | grep '^eisr_drops_total' || {
    echo "wire-smoke: /metrics exports no eisr_drops_total series" >&2
    exit 1
}
OTHER=$(echo "$METRICS_OUT" | grep -v '^#' | sed 's/[{ ].*//' | grep drop | grep -vx eisr_drops_total | sort -u || true)
if [ -n "$OTHER" ]; then
    echo "wire-smoke: drop families besides eisr_drops_total: $OTHER" >&2
    exit 1
fi

echo "wire-smoke: pmgr links"
LINKS=$($BIN/pmgr -s $CTL links)
echo "$LINKS"
if ! echo "$LINKS" | grep -q udp; then
    echo "wire-smoke: pmgr links does not report the UDP links" >&2
    exit 1
fi

# The event journal recorded the boot: router start, the drr module
# load, the peer wiring, and the config mutations must all be visible
# to the operator.
echo "wire-smoke: pmgr events"
EVENTS=$($BIN/pmgr -s $CTL events max=64)
echo "$EVENTS"
for want in router-start plugin-load link-peer config; do
    if ! echo "$EVENTS" | grep -q "$want"; then
        echo "wire-smoke: event journal is missing a $want record" >&2
        exit 1
    fi
done

# Runtime sampling control round-trips through the control socket and
# itself lands in the journal.
$BIN/pmgr -s $CTL pathtrace 16 >/dev/null
if ! $BIN/pmgr -s $CTL events max=8 | grep -q path-sample; then
    echo "wire-smoke: pathtrace mutation not journaled" >&2
    exit 1
fi

echo "wire-smoke: OK"
