"""Mutation-fuzz parity campaign: mutate synthetic pages (deleted slices,
blanked/duplicated lines, NBSP swaps, unclosed tables, blanked cells,
number-format corruption, stripped bold tags, stray parens, truncation)
and assert byte-identical parse output vs the REAL reference parser
(tools/refrun). Usage: python tools/fuzz_parity.py [seed] [n]. ``mutate`` is
also the mutation source of the frozen parse corpus (tools/parse_corpus.py)."""
import json, subprocess, os, tempfile, random, re, sys
sys.path.insert(0, __import__('os').path.dirname(__import__('os').path.dirname(__import__('os').path.abspath(__file__))))
from akf_cdparser_ray.sources import synth
from akf_cdparser_ray.parsing.profile_parser import ProfileParser, parse_profile
from akf_cdparser_ray.parsing.checkfiles import AuditSink, render_checkfiles

def read_ref_checkfiles():
    d = '/tmp/refrun/checkfiles'
    return {f: open(os.path.join(d, f), 'rb').read() for f in os.listdir(d)}

def run_ref(html, timeout=20):
    with tempfile.NamedTemporaryFile('w', suffix='.html', delete=False, encoding='utf-8') as f:
        f.write(html); path = f.name
    try:
        out = subprocess.run(['node', '/tmp/refrun/run_parser.js', path],
                             cwd='/tmp/refrun', env=dict(os.environ, NODE_PATH='/tmp/refrun/node_modules'),
                             capture_output=True, text=True, timeout=timeout)
        if out.returncode != 0 or not out.stdout: return ('crash', None)
        return ('ok', json.loads(out.stdout))
    except subprocess.TimeoutExpired:
        return ('hang', None)
    finally:
        os.unlink(path)

def diff(a, b, path="$", out=None, maxn=3):
    if out is None: out = []
    if len(out) >= maxn: return out
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted((str(x) for x in set(a) | set(b))):
            if k == '_fulltext': continue
            if k not in a: out.append(f"{path}.{k} only MINE")
            elif k not in b: out.append(f"{path}.{k} only REF")
            else: diff(a[k], b[k], f"{path}.{k}", out, maxn)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b): out.append(f"{path} len")
        for i,(x,y) in enumerate(zip(a,b)): diff(x,y,f"{path}[{i}]",out,maxn)
    elif a != b: out.append(f"{path}: REF={json.dumps(a,ensure_ascii=False)[:40]} MINE={json.dumps(b,ensure_ascii=False)[:40]}")
    return out

def mutate(html, rng):
    lines = html.split('\n')
    for _ in range(rng.randrange(1, 4)):
        op = rng.randrange(18)
        if op == 0 and len(lines) > 30:
            a = rng.randrange(10, len(lines) - 10); b = min(len(lines) - 5, a + rng.randrange(1, 8))
            lines = lines[:a] + lines[b:]
        elif op == 1:
            for _ in range(rng.randrange(1, 6)):
                lines[rng.randrange(len(lines))] = ""
        elif op == 2:
            i = rng.randrange(len(lines)); lines.insert(i, lines[i])
        elif op == 3:
            lines = [l.replace('\xa0', ' ') if rng.random() < .5 else l for l in lines]
        elif op == 4:
            idxs = [i for i, l in enumerate(lines) if '</table>' in l]
            if idxs:
                j = rng.choice(idxs); lines[j] = lines[j].replace('</table>', '')
        elif op == 5:
            idxs = [i for i, l in enumerate(lines) if ';' in l]
            if idxs:
                i = rng.choice(idxs); lines[i] = lines[i].replace(';', ';;', 1)
        elif op == 6:
            idxs = [i for i, l in enumerate(lines) if '<td' in l and '</td>' in l]
            if idxs:
                i = rng.choice(idxs)
                lines[i] = re.sub(r'>(.*?)</td>', '></td>', lines[i], count=1)
        elif op == 7:
            idxs = [i for i, l in enumerate(lines) if re.search(r'\d+,\d+', l)]
            if idxs:
                i = rng.choice(idxs); lines[i] = re.sub(r'(\d+),(\d+)', r'\1.\2', lines[i], count=1)
        elif op == 8:
            idxs = [i for i, l in enumerate(lines) if '<b>' in l]
            if idxs:
                i = rng.choice(idxs); lines[i] = lines[i].replace('<b>', '', 1).replace('</b>', '', 1)
        elif op == 9:
            idxs = [i for i, l in enumerate(lines) if 'Vors.' in l or ', ' in l]
            if idxs:
                i = rng.choice(idxs)
                pos = rng.randrange(len(lines[i]))
                lines[i] = lines[i][:pos] + '(' + lines[i][pos:]
        elif op == 10:
            i = rng.randrange(len(lines))
            if len(lines[i]) > 10:
                lines[i] = lines[i][: rng.randrange(5, len(lines[i]))]
        elif op == 11:  # duplicate a whole section block (header + next lines)
            idxs = [i for i, l in enumerate(lines) if '<b>' in l and ':' in l]
            if idxs:
                i = rng.choice(idxs)
                j = min(len(lines), i + rng.randrange(2, 6))
                lines[j:j] = lines[i:j]
        elif op == 12:  # inject a stray ISIN/WKN line mid-document
            i = rng.randrange(len(lines))
            lines.insert(i, rng.choice([
                'ISIN: DE0001234567, Stammaktien<br>',
                'Wertpapier-Kenn-Nr.: 123456, Stammaktien<br>',
            ]))
        elif op == 13:  # move a line elsewhere
            i = rng.randrange(len(lines))
            l = lines.pop(i)
            lines.insert(rng.randrange(len(lines)), l)
        elif op == 14:  # full-page mojibake (utf-8 read as latin-1)
            try:
                lines = ['\n'.join(lines).encode('utf-8').decode('latin-1')]
                lines = lines[0].split('\n')
            except UnicodeError:
                pass
        elif op == 15:  # swap two adjacent table cells on one line
            idxs = [i for i, l in enumerate(lines) if l.count('</td>') >= 2]
            if idxs:
                i = rng.choice(idxs)
                parts = lines[i].split('</td>')
                a = rng.randrange(len(parts) - 2)
                parts[a], parts[a + 1] = parts[a + 1], parts[a]
                lines[i] = '</td>'.join(parts)
        elif op == 16:  # inject a stray <b> header mid-line
            i = rng.randrange(len(lines))
            pos = rng.randrange(len(lines[i]) + 1)
            frag = rng.choice(['<b>', '</b>', '<b>Kurse', '<br><b>Dividenden'])
            lines[i] = lines[i][:pos] + frag + lines[i][pos:]
        else:  # replace a space run with NBSP (and sometimes its mojibake)
            i = rng.randrange(len(lines))
            nb = '\xa0' if rng.random() < 0.5 else '\xc3\x82\xc2\xa0'
            lines[i] = lines[i].replace(' ', nb, 1)
    return '\n'.join(lines)

def canon(x):
    return json.loads(json.dumps(x, ensure_ascii=False))

def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 777
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 100
    rng = random.Random(seed)
    match = hang = crash = cf_match = 0; mismatch = []; cf_mismatch = []; mine_crash = []
    for trial in range(n):
        html = mutate(synth.render_page(synth.gen_profile(rng.randrange(120))), rng)
        status, ref = run_ref(html)
        sink = AuditSink()
        try:
            mine = canon(ProfileParser(audit=sink).parse(html)); ok = True
        except Exception as e:
            ok = False; mine_crash.append((trial, repr(e)[:110]))
        if status != 'ok':
            hang += status == 'hang'; crash += status == 'crash'; continue
        if not ok: continue
        ds = diff(ref, mine)
        if ds: mismatch.append((trial, ds))
        else: match += 1
        # checkfile byte parity for the same page
        ref_cf = read_ref_checkfiles()
        my_cf = render_checkfiles(sink.rows)
        bad = [f for f in sorted(set(ref_cf) | set(my_cf))
               if ref_cf.get(f, b'') != my_cf.get(f, '').encode('utf-8')]
        if bad: cf_mismatch.append((trial, bad[:3]))
        else: cf_match += 1
    print(f"seed={seed} match={match} cf_match={cf_match} ref_hang={hang} ref_crash={crash} engine_crashes={len(mine_crash)}")
    for t, e in mine_crash[:4]: print("engine crash", t, e)
    for t, d in mismatch[:6]: print("mismatch", t, d)
    for t, d in cf_mismatch[:6]: print("cf_mismatch", t, d)
    print("mismatches:", len(mismatch), "cf_mismatches:", len(cf_mismatch))


if __name__ == "__main__":
    main()
