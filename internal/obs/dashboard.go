package obs

// dashboardHTML is the whole /dashboard page: one self-contained HTML
// document, no external assets, no frameworks. It polls /timeline every
// two seconds for throughput, gauges and histogram quantiles.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>bulkgcd scan dashboard</title>
<style>
  body { font: 13px/1.5 -apple-system, "Segoe UI", Roboto, sans-serif;
         margin: 0; padding: 1.2em; background: #11151a; color: #d6dde6; }
  h1 { font-size: 1.1em; margin: 0 0 .8em; color: #8ab4f8; }
  h2 { font-size: .9em; margin: 1.2em 0 .4em; color: #9aa7b5;
       text-transform: uppercase; letter-spacing: .08em; }
  .grid { display: flex; flex-wrap: wrap; gap: 1.5em; }
  .card { background: #1a2027; border: 1px solid #2a323c; border-radius: 6px;
          padding: .8em 1em; min-width: 280px; flex: 1; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: .15em .6em .15em 0; font-variant-numeric: tabular-nums; }
  th { color: #9aa7b5; font-weight: 500; }
  td.num { text-align: right; }
  canvas { width: 100%; height: 90px; }
  .big { font-size: 1.6em; color: #e8eef5; }
  .unit { color: #9aa7b5; font-size: .8em; }
</style>
</head>
<body>
<h1>bulkgcd scan dashboard <span id="state" class="unit"></span></h1>
<div class="grid">
  <div class="card">
    <h2>throughput</h2>
    <div><span id="rate" class="big">–</span> <span class="unit" id="rateName">pairs/s</span></div>
    <canvas id="spark" width="560" height="90"></canvas>
  </div>
  <div class="card">
    <h2>occupancy</h2>
    <table id="gauges"><tbody></tbody></table>
  </div>
  <div class="card">
    <h2>latency quantiles</h2>
    <table id="hists"><thead><tr><th>histogram</th><th>count</th><th>p50</th><th>p95</th><th>p99</th></tr></thead><tbody></tbody></table>
  </div>
</div>
<script>
"use strict";
// Preferred throughput counters: scan pairs, batch-GCD findings, and
// keys submitted to a watch server. The dashboard follows the first one
// the snapshot has.
const RATE_PREF = ["bulk_pairs_total", "batchgcd_findings_total", "registry_submissions_total"];
const fmt = v => {
  if (!isFinite(v)) return "–";
  if (v >= 1e6) return (v / 1e6).toFixed(1) + "M";
  if (v >= 1e3) return (v / 1e3).toFixed(1) + "k";
  return v >= 100 ? v.toFixed(0) : v.toPrecision(3);
};
const secs = v => v >= 1 ? v.toFixed(2) + "s" : (v * 1e3).toFixed(2) + "ms";

function drawSpark(series) {
  const c = document.getElementById("spark"), ctx = c.getContext("2d");
  ctx.clearRect(0, 0, c.width, c.height);
  if (series.length < 2) return;
  const max = Math.max(...series, 1e-9);
  ctx.strokeStyle = "#8ab4f8"; ctx.lineWidth = 2; ctx.beginPath();
  series.forEach((v, i) => {
    const x = i / (series.length - 1) * (c.width - 4) + 2;
    const y = c.height - 4 - (v / max) * (c.height - 12);
    i ? ctx.lineTo(x, y) : ctx.moveTo(x, y);
  });
  ctx.stroke();
}

function fillRows(tbodySel, rows) {
  document.querySelector(tbodySel).innerHTML = rows.join("");
}

async function pollTimeline() {
  const tl = await (await fetch("timeline")).json();
  const pts = tl.points || [];
  if (!pts.length) return;
  const last = pts[pts.length - 1];
  const rateName = RATE_PREF.find(n => last.counters && n in last.counters) || Object.keys(last.counters || {})[0];
  const series = pts.map(p => (p.rates && p.rates[rateName]) || 0);
  document.getElementById("rate").textContent = fmt(series[series.length - 1] || 0);
  document.getElementById("rateName").textContent = (rateName || "") + " /s";
  drawSpark(series);

  fillRows("#gauges tbody", Object.entries(last.gauges || {}).sort().map(
    ([k, v]) => "<tr><th>" + k + "</th><td class=num>" + fmt(v) + "</td></tr>"));

  fillRows("#hists tbody", Object.entries(last.hists || {}).sort().map(
    ([k, h]) => "<tr><th>" + k + "</th><td class=num>" + h.count +
      "</td><td class=num>" + secs(h.p50) + "</td><td class=num>" + secs(h.p95) +
      "</td><td class=num>" + secs(h.p99) + "</td></tr>"));
  document.getElementById("state").textContent = "as of " + new Date(last.ts).toLocaleTimeString();
}

async function tick() {
  try { await pollTimeline(); } catch (e) { /* server draining */ }
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
`
