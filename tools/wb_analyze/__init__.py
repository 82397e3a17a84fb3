"""wb_analyze: determinism & hygiene static analysis for the Wi-Fi
Backscatter codebase.

Entry point:
    python3 tools/wb_analyze [--json-out F] [--baseline F] [--root DIR]

See tools/wb_analyze/engine.py for the engine and rules/ for the
catalogue; `--list-rules` prints every rule with family and severity.
"""
