"""Run the ten-property certification suite and print the report.

Each property is checked with exact rational arithmetic — containments
and equalities are zero-tolerance symmetric-difference computations, not
numerics.  Even the fixed segment [W^c S] and attraction into the top
triangle are certified from the piece matrices rather than sampled.
"""

from pam import serialize_reports, standard_map, verify_map

reports = verify_map(standard_map())
print(serialize_reports(reports))

statuses = sorted({r.status for r in reports})
print(f"properties: {len(reports)}, statuses: {', '.join(statuses)}")
